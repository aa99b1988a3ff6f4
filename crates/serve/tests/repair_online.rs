//! End-to-end tests of the online diagnose → repair → hot-swap loop.
//!
//! The load-bearing guarantees pinned here:
//!
//! * **the loop closes online**: a defect-injected scenario served live is
//!   diagnosed from its accumulated traffic, repaired, and hot-swapped,
//!   and the repaired version measurably improves held-out accuracy;
//! * **swaps are invisible to predict traffic**: a concurrent predict
//!   load sees zero errored requests, every response is bitwise identical
//!   to either the old or the new version (never a mixture), and every
//!   response that completed before the repair began equals the old
//!   version exactly;
//! * **diagnosis is memoized per version**: a second diagnose of an
//!   unchanged model trains no probes, and a swap invalidates both the
//!   session and the accumulated traffic;
//! * **versions persist**: a restarted registry resumes the repaired
//!   chain.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepmorph::pipeline::DeepMorphConfig;
use deepmorph::prelude::{
    DatasetKind, DefectKind, DefectReport, DefectSpec, ModelFamily, Scenario, StagedEngine,
    TrainConfig,
};
use deepmorph_models::save_model;
use deepmorph_serve::prelude::*;
use deepmorph_tensor::Tensor;

/// The defect scenario under repair: mirrors `tests/repair.rs`'s ITD
/// case, whose offline repair is known to restore > 0.1 accuracy.
fn itd_scenario() -> Scenario {
    Scenario::builder(ModelFamily::LeNet, DatasetKind::Digits)
        .seed(7)
        .train_per_class(80)
        .test_per_class(25)
        .train_config(train_config())
        .inject(itd_defect())
        .build()
        .unwrap()
}

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 6,
        batch_size: 32,
        learning_rate: 0.05,
        lr_decay: 0.9,
        ..TrainConfig::default()
    }
}

fn itd_defect() -> DefectSpec {
    DefectSpec::insufficient_training_data(vec![0, 1, 2], 0.98)
}

/// Deterministic distinct probe rows the load generator replays.
fn probe_rows(n: usize) -> Tensor {
    let data = (0..n * 256)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(3);
            ((h >> 40) as f32 / (1u64 << 24) as f32).fract()
        })
        .collect();
    Tensor::from_vec(data, &[n, 1, 16, 16]).unwrap()
}

fn bits_of(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn served_defect_is_diagnosed_repaired_and_hot_swapped_under_load() {
    let dir = std::env::temp_dir().join(format!("deepmorph-repair-online-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // -- Produce the defective deployment offline -----------------------
    let scenario = itd_scenario();
    let trained = StagedEngine::ephemeral().trained(&scenario).unwrap();
    let mut model = trained.instantiate().unwrap();
    save_model(dir.join("digits.dmmd"), &mut model).unwrap();
    let ctx = DiagnosisContext::from(&scenario);
    std::fs::write(dir.join("digits.meta.json"), ctx.to_json()).unwrap();

    let registry = ModelRegistry::open(&dir).unwrap();
    let server = Server::start(
        registry,
        ServerConfig {
            deepmorph: DeepMorphConfig {
                max_faulty_cases: 200,
                ..DeepMorphConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Reference logits of the defective version.
    let rows = probe_rows(6);
    let old_bits = bits_of(&model.graph.forward_inference(&rows).unwrap());

    // -- Concurrent predict load across the whole loop ------------------
    let stop = Arc::new(AtomicBool::new(false));
    let answered: Vec<Arc<AtomicUsize>> = (0..2).map(|_| Arc::default()).collect();
    let loaders: Vec<_> = answered
        .iter()
        .map(|answered| {
            let stop = Arc::clone(&stop);
            let answered = Arc::clone(answered);
            let rows = rows.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut responses: Vec<(Instant, Vec<u32>)> = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    // Any error here is a dropped/failed request: the test
                    // panics on unwrap, which is exactly the assertion.
                    let response = client.predict_full("digits", &rows, true, &[]).unwrap();
                    responses.push((Instant::now(), bits_of(&response.logits.unwrap())));
                    answered.fetch_add(1, Ordering::Release);
                }
                responses
            })
        })
        .collect();

    let mut client = Client::connect(addr).unwrap();

    // -- Accumulate labeled traffic and diagnose ------------------------
    let (_, test) = scenario.injected_data().unwrap();
    client
        .predict_full("digits", test.images(), false, test.labels())
        .unwrap();

    let diagnosis = client.diagnose("digits").unwrap();
    let report = DefectReport::from_json(&diagnosis.report_json).unwrap();
    assert_eq!(
        report.dominant(),
        Some(DefectKind::InsufficientTrainingData),
        "live traffic must reproduce the offline ITD diagnosis: {report}"
    );
    assert!(report.subject.contains("digits@v1"));

    // Memoization: the second diagnose of the unchanged model must not
    // train probes again.
    let diagnosis2 = client.diagnose("digits").unwrap();
    assert_eq!(diagnosis2.cases, diagnosis.cases);
    let stats = client.telemetry().unwrap().stats;
    assert_eq!(stats.diagnoses, 2);
    assert_eq!(
        stats.probe_trainings, 1,
        "a second diagnose of an unchanged model retrained probes"
    );

    // -- Repair + hot-swap ----------------------------------------------
    let repair_started = Instant::now();
    let repair = client.repair("digits").unwrap();
    let repair_done = Instant::now();
    assert!(repair.swapped, "gate rejected the repair: {repair:?}");
    assert!(
        repair.accuracy_after > repair.accuracy_before + 0.05,
        "repair should substantially improve held-out accuracy: {:.3} -> {:.3}",
        repair.accuracy_before,
        repair.accuracy_after
    );
    assert_eq!(repair.version, 2);
    assert!(repair.plan.contains("collect more training data"));
    assert!(repair.swap_micros > 0);

    // Reference logits of the repaired version (served, hence v2).
    let new_bits = bits_of(
        &client
            .predict_full("digits", &rows, true, &[])
            .unwrap()
            .logits
            .unwrap(),
    );
    assert_ne!(old_bits, new_bits, "repair must actually change the model");

    // -- Load must have seen exactly the two versions, atomically -------
    // A loader's request in flight at the swap may have been computed by
    // the old version; the one it sends next is answered by the new one.
    // So each loader completes two more requests before the load stops.
    let marks: Vec<usize> = answered.iter().map(|a| a.load(Ordering::Acquire)).collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    while answered
        .iter()
        .zip(&marks)
        .any(|(a, &mark)| a.load(Ordering::Acquire) < mark + 2)
    {
        assert!(
            Instant::now() < deadline,
            "predict load stalled after the swap"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::Release);
    let mut pre_swap = 0usize;
    let mut post_swap = 0usize;
    let mut during = 0usize;
    for loader in loaders {
        for (finished, bits) in loader.join().unwrap() {
            if bits == old_bits {
                pre_swap += 1;
            } else if bits == new_bits {
                post_swap += 1;
            } else {
                panic!("a response matched neither the old nor the new version bitwise");
            }
            if finished < repair_started {
                assert_eq!(
                    bits, old_bits,
                    "a pre-repair response diverged from the serving version"
                );
            } else if finished < repair_done {
                during += 1;
            }
        }
    }
    assert!(pre_swap > 0, "load generator never reached the old version");
    assert!(post_swap > 0, "load generator never saw the new version");
    assert!(
        during > 0,
        "predict traffic made no progress while the repair ran"
    );

    // -- Post-swap bookkeeping ------------------------------------------
    let versions = client.versions("digits").unwrap();
    assert_eq!(versions.len(), 2);
    assert!(!versions[0].active && versions[0].version == 1);
    assert!(versions[1].active && versions[1].version == 2);
    assert_eq!(versions[1].fingerprint, repair.fingerprint);
    let models = client.models().unwrap();
    assert_eq!(models[0].version, 2);
    assert_eq!(models[0].fingerprint, repair.fingerprint);

    // The swap cleared the pre-repair traffic: diagnosing the fresh
    // version without new labeled traffic is a typed refusal.
    assert!(matches!(
        client.diagnose("digits"),
        Err(ServeError::Remote {
            code: ErrorCode::Diagnosis,
            ..
        })
    ));

    // New labeled traffic against v2 diagnoses fine — and prepares a new
    // session (the old version's probes are invalid for it).
    client
        .predict_full("digits", test.images(), false, test.labels())
        .unwrap();
    let post = client.diagnose("digits").unwrap();
    assert!(post.cases > 0);
    let report = DefectReport::from_json(&post.report_json).unwrap();
    assert!(report.subject.contains("digits@v2"));
    let stats = client.telemetry().unwrap().stats;
    assert_eq!(stats.probe_trainings, 2);
    assert_eq!(stats.repairs, 1);
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.errors, 1, "only the empty-buffer diagnose may error");

    server.shutdown();

    // -- Restart persistence --------------------------------------------
    let reopened = ModelRegistry::open(&dir).unwrap();
    let id = reopened.find("digits").unwrap();
    let current = reopened.current(id);
    assert_eq!(current.version, 2);
    assert_eq!(current.fingerprint, repair.fingerprint);
    assert_eq!(
        current.diagnosis.as_ref().map(|c| c.defect.clone()),
        Some(itd_defect()),
        "the published sidecar must carry the provenance forward"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The gate: a repaired model that cannot beat the serving version on
/// the held-out set must not be swapped. Forced deterministically: the
/// sidecar lies that the model was trained with a zero learning rate, so
/// the repair's retrain leaves the fresh model at its random
/// initialization — hopeless against the actually-trained serving
/// version.
#[test]
fn gate_keeps_the_serving_version_when_the_repair_is_worse() {
    let dir = std::env::temp_dir().join(format!("deepmorph-repair-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let scenario = itd_scenario();
    let trained = StagedEngine::ephemeral().trained(&scenario).unwrap();
    save_model(dir.join("digits.dmmd"), &mut trained.instantiate().unwrap()).unwrap();
    let ctx = DiagnosisContext {
        train: TrainConfig {
            learning_rate: 0.0,
            ..train_config()
        },
        ..DiagnosisContext::from(&scenario)
    };
    std::fs::write(dir.join("digits.meta.json"), ctx.to_json()).unwrap();

    let server =
        Server::start(ModelRegistry::open(&dir).unwrap(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let (_, test) = scenario.injected_data().unwrap();
    client
        .predict_full("digits", test.images(), false, test.labels())
        .unwrap();
    let repair = client.repair("digits").unwrap();
    assert!(!repair.swapped, "an lr=0 retrain must lose the gate");
    assert!(repair.accuracy_after < repair.accuracy_before);
    assert_eq!(repair.version, 1, "the serving version must be untouched");
    assert_eq!(repair.swap_micros, 0);
    assert_eq!(client.versions("digits").unwrap().len(), 1);
    assert_eq!(client.telemetry().unwrap().stats.swaps, 0);
    // The accumulated traffic survives a rejected repair: the next
    // diagnose still has its cases.
    assert!(client.diagnose("digits").unwrap().cases > 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Repairing an unknown model, or one with no accumulated traffic, is a
/// typed refusal — never a crash or a silent no-op.
#[test]
fn repair_refusals_are_typed() {
    let spec = deepmorph_models::ModelSpec::new(
        ModelFamily::LeNet,
        deepmorph_models::ModelScale::Tiny,
        [1, 16, 16],
        10,
    );
    let mut model =
        deepmorph_models::build_model(&spec, &mut deepmorph_tensor::init::stream_rng(5, "t"))
            .unwrap();
    let mut registry = ModelRegistry::new();
    registry
        .register(
            "m",
            &mut model,
            Some(DiagnosisContext::new(DatasetKind::Digits, 5, 12)),
        )
        .unwrap();
    let server = Server::start(registry, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    assert!(matches!(
        client.repair("nope"),
        Err(ServeError::Remote {
            code: ErrorCode::UnknownModel,
            ..
        })
    ));
    // No labeled traffic accumulated: diagnosing inside the repair fails
    // with the same typed refusal the diagnose endpoint gives.
    assert!(matches!(
        client.repair("m"),
        Err(ServeError::Remote {
            code: ErrorCode::Diagnosis,
            ..
        })
    ));
    server.shutdown();
}
