//! End-to-end tests of quantized serving replicas.
//!
//! Pinned guarantees:
//!
//! * **default serving is the bitwise f32 reference** — until an operator
//!   promotes a quantized mode, responses equal the saved model exactly;
//! * **promotion is gated on the held-out set** — the quantized replica
//!   must not lose accuracy against the f32 serving model, exactly like
//!   a repair hot-swap, and the decision is reported either way;
//! * **promotion changes serving only** — the version chain is untouched
//!   (same version, same fingerprint, no history entry) and predict
//!   traffic keeps flowing while workers rebuild replicas;
//! * **demotion restores the reference** — promoting back to f32 makes
//!   responses bitwise identical to the pre-promotion ones;
//! * **a model without a provenance sidecar cannot be promoted** — there
//!   is no held-out set to gate on, so the request is a typed refusal.

use deepmorph::prelude::{DatasetKind, ModelFamily, Scenario, StagedEngine, TrainConfig};
use deepmorph_models::save_model;
use deepmorph_serve::prelude::*;
use deepmorph_tensor::Tensor;

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 6,
        batch_size: 32,
        learning_rate: 0.05,
        lr_decay: 0.9,
        ..TrainConfig::default()
    }
}

/// A healthy (defect-free) scenario: high held-out accuracy, so the
/// quantized replica has the best possible shot at matching the f32
/// model sample-for-sample. Everything is seeded — the gate's decision
/// is deterministic.
fn healthy_scenario() -> Scenario {
    Scenario::builder(ModelFamily::LeNet, DatasetKind::Digits)
        .seed(7)
        .train_per_class(80)
        .test_per_class(25)
        .train_config(train_config())
        .build()
        .unwrap()
}

/// Deterministic distinct probe rows (same construction as the repair
/// tests).
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
fn quantized_promotion_is_gated_and_reversible() {
    let dir = std::env::temp_dir().join(format!("deepmorph-serve-quant-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let scenario = healthy_scenario();
    let trained = StagedEngine::ephemeral().trained(&scenario).unwrap();
    let mut model = trained.instantiate().unwrap();
    save_model(dir.join("digits.dmmd"), &mut model).unwrap();
    let ctx = DiagnosisContext::from(&scenario);
    std::fs::write(dir.join("digits.meta.json"), ctx.to_json()).unwrap();

    let server =
        Server::start(ModelRegistry::open(&dir).unwrap(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Default serving is the bitwise f32 reference.
    let rows = probe_rows(6);
    let f32_bits = bits_of(&model.graph.forward_inference(&rows).unwrap());
    let served = client.predict_full("digits", &rows, true, &[]).unwrap();
    assert_eq!(
        bits_of(&served.logits.unwrap()),
        f32_bits,
        "default serving must be bitwise-identical to the saved model"
    );

    // Promote to i8. The healthy model is deterministic and accurate, so
    // the quantized replica matches it on the held-out set and the gate
    // passes; the response reports both accuracies either way.
    let promoted = server.promote_quantized("digits", Precision::I8).unwrap();
    assert!(
        promoted.promoted,
        "i8 must clear the gate on the healthy fixture: f32 {:.3} vs quantized {:.3}",
        promoted.accuracy_f32, promoted.accuracy_quantized
    );
    assert!(promoted.accuracy_quantized >= promoted.accuracy_f32);
    assert!(promoted.accuracy_f32 > 0.8, "fixture should train well");
    assert_eq!(promoted.precision, Precision::I8);
    assert_eq!(promoted.version, 1, "promotion must not mint a version");

    // The version chain is untouched — same single version, still active,
    // same fingerprint — but serving responses now come off the integer
    // kernel and differ from the f32 reference.
    let versions = client.versions("digits").unwrap();
    assert_eq!(versions.len(), 1);
    assert!(versions[0].active);
    assert_eq!(versions[0].fingerprint, promoted.fingerprint);
    let quant = client.predict_full("digits", &rows, true, &[]).unwrap();
    let quant_bits = bits_of(&quant.logits.unwrap());
    assert_ne!(
        quant_bits, f32_bits,
        "i8 serving must actually run the quantized kernel"
    );
    assert_eq!(client.telemetry().unwrap().stats.swaps, 1);

    // Promotion is idempotent in effect: repeating it re-gates against
    // the same entry and serving stays quantized.
    let again = server.promote_quantized("digits", Precision::I8).unwrap();
    assert!(again.promoted);

    // Demotion back to f32 is ungated and restores the bitwise reference.
    let demoted = server.promote_quantized("digits", Precision::F32).unwrap();
    assert!(demoted.promoted);
    let restored = client.predict_full("digits", &rows, true, &[]).unwrap();
    assert_eq!(
        bits_of(&restored.logits.unwrap()),
        f32_bits,
        "demotion must restore bitwise-reference serving"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn promotion_without_provenance_is_refused() {
    let spec = deepmorph_models::ModelSpec::new(
        ModelFamily::LeNet,
        deepmorph_models::ModelScale::Tiny,
        [1, 16, 16],
        10,
    );
    let mut model =
        deepmorph_models::build_model(&spec, &mut deepmorph_tensor::init::stream_rng(5, "q"))
            .unwrap();
    let mut registry = ModelRegistry::new();
    registry.register("m", &mut model, None).unwrap();
    let server = Server::start(registry, ServerConfig::default()).unwrap();

    assert!(matches!(
        server.promote_quantized("nope", Precision::I8),
        Err(ServeError::UnknownModel { .. })
    ));
    // No sidecar: there is no held-out set to gate the promotion on.
    assert!(matches!(
        server.promote_quantized("m", Precision::I8),
        Err(ServeError::Diagnosis { .. })
    ));
    // Demotion to f32 needs no gate and therefore no sidecar.
    let demoted = server.promote_quantized("m", Precision::F32).unwrap();
    assert!(demoted.promoted);
    server.shutdown();
}
