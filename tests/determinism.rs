//! Determinism guard for the `parallel` feature.
//!
//! The parallel kernels promise *bitwise* identical results to the serial
//! path: every output element accumulates its terms in the same order; only
//! the thread that computes it changes. These tests pin that contract:
//!
//! 1. kernel-level: for the NN/NT/TN products, `Backend::gemm` with the
//!    fan-out hint sized by the product (what every `ComputeCtx` product
//!    dispatches) equals the same call with fan-out pinned off and an
//!    independent naive per-element reference bit for bit (both calls
//!    share the unified GEMM kernel, so the naive reference is what
//!    actually pins the accumulation order: `p` ascending per element,
//!    zero-skip on the `A` coefficient for NN/TN, no skip for NT),
//! 2. scenario-level: a fixed-seed LeNet/Digits diagnosis is identical
//!    run-to-run in one process, and
//! 3. build-level: the report digest is recorded under `target/` and
//!    compared across feature configurations — running `cargo test` then
//!    `cargo test --no-default-features` (tier-1 + serial gate) makes the
//!    second run verify the first's digest.

use deepmorph_repro::prelude::*;
use deepmorph_tensor::backend::{self, GemmSpec};
use deepmorph_tensor::Tensor;

fn synth(shape: &[usize], salt: u64) -> Tensor {
    let len: usize = shape.iter().product();
    let data: Vec<f32> = (0..len)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt.wrapping_mul(0x2545_F491_4F6C_DD1D));
            ((h >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

/// Sprinkles exact zeros so the kernels' zero-skip paths are exercised.
fn with_zeros(t: &Tensor) -> Tensor {
    let mut z = t.clone();
    for (i, v) in z.data_mut().iter_mut().enumerate() {
        if i % 7 == 0 {
            *v = 0.0;
        }
    }
    z
}

/// `spec`'s product on the scalar reference backend, from zero.
fn scalar_product(spec: GemmSpec, a: &Tensor, b: &Tensor) -> Vec<f32> {
    let mut out = vec![0.0f32; spec.out_len()];
    backend::scalar().gemm(&spec, a.data(), b.data(), &mut out);
    out
}

/// Independent per-element reference for the NN/NT/TN products: `p`
/// ascending, single dependent add chain per output element, zero-skip on
/// the `A` coefficient for NN/TN (matching the historical reference
/// kernels) and no skip for NT. This is deliberately *not* the production
/// kernel — it pins the accumulation order the unified GEMM must keep.
fn naive_matmul(op: &str, a: &Tensor, b: &Tensor, m: usize, k: usize, n: usize) -> Vec<f32> {
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let av = match op {
                    "tn" => ad[p * m + i],
                    _ => ad[i * k + p],
                };
                if op != "nt" && av == 0.0 {
                    continue;
                }
                let bv = match op {
                    "nt" => bd[j * k + p],
                    _ => bd[p * n + j],
                };
                acc += av * bv;
            }
            out[i * n + j] = acc;
        }
    }
    out
}

#[test]
fn matmul_family_bitwise_matches_serial_reference() {
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (5, 3, 7),
        (33, 65, 17),
        (64, 72, 16), // the batch-64 conv GEMM shape class
        (128, 128, 128),
        (130, 70, 9),  // odd sizes exercise every unroll tail
        (3, 20, 600),  // wider than one GEMM cache panel
        (8192, 36, 4), // the ResNet-Tiny conv-forward class at batch 32
    ] {
        for salt in [1u64, 2] {
            let a0 = synth(&[m, k], salt);
            let b0 = synth(&[k, n], salt + 10);
            for (a, b) in [(a0.clone(), b0.clone()), (with_zeros(&a0), with_zeros(&b0))] {
                let bt = synth(&[n, k], salt + 20);
                let at = synth(&[k, m], salt + 30);
                let bk = synth(&[k, n], salt + 40);
                for (op, spec, lhs, rhs) in [
                    ("nn", GemmSpec::nn(m, k, n), &a, &b),
                    ("nt", GemmSpec::nt(m, k, n), &a, &bt),
                    ("tn", GemmSpec::tn(m, k, n), &at, &bk),
                ] {
                    let fast = scalar_product(spec.parallel_worthwhile(), lhs, rhs);
                    let slow = scalar_product(spec.parallel(false), lhs, rhs);
                    assert_eq!(fast, slow, "{op} {m}x{k}x{n}");
                    let naive = naive_matmul(op, lhs, rhs, m, k, n);
                    assert_eq!(fast, naive, "{op} vs naive {m}x{k}x{n}");
                }
            }
        }
    }
}

/// The fixed-seed scenario shape: LeNet on digits, 40/12 per class, three
/// epochs.
fn scenario_with(seed: u64, defect: DefectSpec) -> Scenario {
    Scenario::builder(ModelFamily::LeNet, DatasetKind::Digits)
        .seed(seed)
        .scale(ModelScale::Tiny)
        .train_per_class(40)
        .test_per_class(12)
        .train_config(TrainConfig {
            epochs: 3,
            batch_size: 32,
            ..TrainConfig::default()
        })
        .inject(defect)
        .build()
        .expect("scenario builds")
}

fn fixed_scenario() -> Scenario {
    scenario_with(
        1234,
        DefectSpec::insufficient_training_data(vec![0, 1, 2], 0.98),
    )
}

fn run_fixed_scenario() -> deepmorph::report::DefectReport {
    fixed_scenario().run().expect("scenario runs").report
}

fn fnv64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn fixed_seed_scenario_is_identical_across_runs_and_builds() {
    let first = run_fixed_scenario();
    let second = run_fixed_scenario();
    assert_eq!(first, second, "same-process reruns must match exactly");

    let json = first.to_json();
    let digest = format!("{:016x}", fnv64(&json));

    // Cross-build guard: `cargo test` (parallel default) and
    // `cargo test --no-default-features` (serial) both run this test; each
    // writes its digest and checks any digest a previous configuration
    // left behind. Identical numerics ⇒ identical digests.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism");
    std::fs::create_dir_all(&dir).expect("create digest dir");
    let features = if cfg!(feature = "parallel") {
        "parallel"
    } else {
        "serial"
    };
    for entry in std::fs::read_dir(&dir).expect("read digest dir") {
        let path = entry.expect("dir entry").path();
        let other = std::fs::read_to_string(&path).unwrap_or_default();
        assert_eq!(
            other.trim(),
            digest,
            "diagnosis report diverged from the digest recorded by {} — \
             the serial and parallel paths no longer agree bitwise",
            path.display()
        );
    }
    std::fs::write(dir.join(format!("{features}.digest")), &digest).expect("write digest");
}

#[test]
fn artifact_store_round_trip_leaves_digest_unchanged() {
    // The staged engine's save → load cycle (model codec, probe codec,
    // footprint codec, report JSON) must be invisible: a scenario driven
    // through a real store — cold, then entirely from cache — produces
    // the exact report the plain in-process run does. The store directory
    // is shared across feature configurations on purpose: the serial
    // build reads artifacts the parallel build wrote, so the codec is
    // also a cross-build determinism check.
    let plain = run_fixed_scenario();

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism-store");
    std::fs::create_dir_all(&dir).expect("store dir");
    let engine = deepmorph::stage::StagedEngine::new(
        deepmorph::artifact::ArtifactStore::open(&dir).expect("store opens"),
    );
    let scenario = fixed_scenario();
    let cold = engine.run(&scenario).expect("cold staged run").report;
    let warm = engine.run(&scenario).expect("warm staged run").report;
    assert_eq!(cold, plain, "staged (cold) run diverged from the plain run");
    assert_eq!(warm, plain, "cache round-trip changed the report");
    assert_eq!(
        fnv64(&warm.to_json()),
        fnv64(&plain.to_json()),
        "fixed-seed scenario digest changed across the store round-trip"
    );
}

#[test]
fn live_diagnosis_equals_offline_diagnosis_bitwise() {
    // The server diagnoses through `DeepMorph::prepare` →
    // `DiagnosisSession::diagnose`; scenarios, sweeps and Table I go
    // through the staged engine. Fed the same trained model, training set
    // and faulty cases, the two must produce the same report bit for bit.
    let cases = [
        fixed_scenario(),
        scenario_with(11, DefectSpec::unreliable_training_data(3, 5, 0.5)),
        scenario_with(7, DefectSpec::structure_defect(6)),
    ];
    // The configuration `Scenario::builder` defaults to.
    let config = DeepMorphConfig {
        max_faulty_cases: 200,
        ..DeepMorphConfig::default()
    };
    let mut digests = Vec::with_capacity(cases.len());
    for scenario in &cases {
        // An in-memory store, so `trained` below loads stage 1 instead
        // of training the model a second time.
        let engine = StagedEngine::new(ArtifactStore::in_memory());
        let offline = engine.run(scenario).expect("staged run").report;
        let trained = engine.trained(scenario).expect("trained stage");
        let (train, _test) = scenario.injected_data().expect("injected data");
        let online = DeepMorph::new(config)
            .prepare(trained.instantiate().expect("model decodes"), &train)
            .expect("session prepares")
            .diagnose(&trained.faulty, &scenario.subject())
            .expect("session diagnoses");
        let json = online.to_json();
        assert_eq!(
            json,
            offline.to_json(),
            "{}: live and offline diagnosis diverged",
            scenario.subject()
        );
        digests.push(format!("{:016x}", fnv64(&json)));
    }
    // The ITD case is the fixed-seed scenario; its digest has not moved
    // since the staged engine replaced the single-pass pipeline.
    assert_eq!(digests[0], "131ed34786c062c7");
}
