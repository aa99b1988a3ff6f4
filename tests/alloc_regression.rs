//! Allocation-regression guard for the workspace arena.
//!
//! The tensor workspace (`deepmorph_tensor::workspace`) promises a
//! zero-allocation steady state: once a hot loop has warmed the
//! thread-local arena, every kernel draws its buffers from free lists and
//! recycles them back. This test pins that contract with a counting global
//! allocator: after warm-up, a full conv forward+backward training step,
//! a dispatching matmul, and an eval forward through a dense and a conv
//! layer prepared for serving must perform **zero** heap allocations.
//!
//! The whole file is a single `#[test]` so no sibling test can allocate
//! concurrently; worker-pool threads only ever process borrowed chunks
//! (they never allocate), so the global counter is quiet during the
//! measured window on both feature configurations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use deepmorph_nn::prelude::*;
use deepmorph_telemetry::{Stage, TelemetryConfig, Trace, STAGE_COUNT};
use deepmorph_tensor::backend::{self, GemmSpec};
use deepmorph_tensor::init::stream_rng;
use deepmorph_tensor::{workspace, Tensor};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`, only adding a counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Deterministic activations in `[-1, 1]`, never exactly zero (mirrors the
/// bench generator so the GEMM zero-skip branch stays cold).
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

/// One full conv training step (forward in train mode + backward),
/// recycling everything it retires — the shape a graph-driven step has.
fn conv_step(layer: &mut Conv2d, x: &Tensor, grad: &Tensor) {
    let y = layer.forward(&[x], Mode::Train).unwrap();
    workspace::recycle_tensor(y);
    let gx = layer.backward(grad).unwrap().into_first();
    workspace::recycle_tensor(gx);
}

fn matmul_step(ctx: &ComputeCtx, a: &Tensor, b: &Tensor) {
    let c = ctx.matmul(a, b).unwrap();
    workspace::recycle_tensor(c);
}

/// One eval forward through a prepared dense and a prepared conv layer —
/// the products a serving replica runs against its packed weights.
fn serving_step(dense: &mut Dense, conv: &mut Conv2d, x_dense: &Tensor, x_conv: &Tensor) {
    let y = dense.forward(&[x_dense], Mode::Eval).unwrap();
    workspace::recycle_tensor(y);
    let y = conv.forward(&[x_conv], Mode::Eval).unwrap();
    workspace::recycle_tensor(y);
}

#[test]
fn warm_conv_step_and_matmul_do_not_allocate() {
    // Batch 64 exceeds every parallel grain, so with the `parallel`
    // feature this exercises the worker-pool dispatch path too.
    let mut rng = stream_rng(1, "alloc-regression");
    let mut layer = Conv2d::new(8, 16, 16, 16, 3, 1, 1, &mut rng).unwrap();
    let x = synth_tensor(&[64, 8, 16, 16], 3);
    let grad = Tensor::ones(&[64, 16, 16, 16]);
    let a = synth_tensor(&[128, 128], 5);
    let b = synth_tensor(&[128, 128], 6);
    let ctx = ComputeCtx::default();
    // Serving replicas pack their weights once, here, before any window.
    let mut dense = Dense::new(256, 600, &mut rng);
    let mut served_conv = Conv2d::new(8, 16, 16, 16, 3, 1, 1, &mut rng).unwrap();
    dense.apply_precision(Precision::F32).unwrap();
    served_conv.apply_precision(Precision::F32).unwrap();
    let x_dense = synth_tensor(&[32, 256], 7);

    // Warm-up: spawns the worker pool (parallel builds), sizes the arena's
    // free lists, and settles optimizer-free layer caches. Two rounds so
    // the cached-cols swap cycle reaches steady state.
    for _ in 0..3 {
        conv_step(&mut layer, &x, &grad);
        matmul_step(&ctx, &a, &b);
        serving_step(&mut dense, &mut served_conv, &x_dense, &x);
    }

    // Measured window: a warm conv forward+backward step.
    let before = allocations();
    conv_step(&mut layer, &x, &grad);
    let after_conv = allocations();
    assert_eq!(
        after_conv - before,
        0,
        "warm conv forward+backward step allocated"
    );

    // Measured window: a warm dispatching matmul (includes the workspace
    // packing buffers and the pooled result).
    matmul_step(&ctx, &a, &b);
    let after_matmul = allocations();
    assert_eq!(after_matmul - after_conv, 0, "warm matmul allocated");

    // The same product with fan-out pinned off shares the same arena.
    let mut c = workspace::tensor_zeroed(&[128, 128]);
    let serial = GemmSpec::nn(128, 128, 128).parallel(false);
    backend::scalar().gemm(&serial, a.data(), b.data(), c.data_mut());
    workspace::recycle_tensor(c);
    let after_serial = allocations();
    assert_eq!(
        after_serial - after_matmul,
        0,
        "warm serial matmul allocated"
    );

    // Measured window: a warm eval forward through the prepared layers,
    // whose products run against the packs built above.
    serving_step(&mut dense, &mut served_conv, &x_dense, &x);
    let after_serving = allocations();
    assert_eq!(
        after_serving - after_serial,
        0,
        "warm eval forward through prepared layers allocated"
    );

    // Telemetry hot path: with the registry armed, recording request
    // latencies, stage spans, and trace offers must stay allocation-free
    // — these run inside the serving data path. The first-touch cost
    // (the trace ring filling to capacity) is paid before the window.
    let telemetry = deepmorph_telemetry::install(TelemetryConfig { slow_traces: 4 });
    for id in 0..4 {
        telemetry.offer_trace(Trace {
            id,
            total_us: 0,
            stages: [1; STAGE_COUNT],
        });
    }
    let before_telemetry = allocations();
    for i in 0..1024u64 {
        telemetry.record_request(i);
        telemetry.record_stage(Stage::Compute, i);
        telemetry.record_stage(Stage::QueueWait, i);
        // The ring is at capacity, so winning offers replace the
        // fastest incumbent in place and losing offers are dropped —
        // both paths must be allocation-free.
        telemetry.offer_trace(Trace {
            id: i,
            total_us: i,
            stages: [i; STAGE_COUNT],
        });
    }
    assert_eq!(
        allocations() - before_telemetry,
        0,
        "armed telemetry recording allocated"
    );
    deepmorph_telemetry::clear();

    // Sanity: the counter itself works.
    let v: Vec<u8> = Vec::with_capacity(1024);
    assert!(allocations() > after_serving, "allocation counter is dead");
    drop(v);
}
