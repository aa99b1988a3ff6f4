//! The canonical defect-injected deployment that `serve_bench`'s
//! swap-under-load phase and the benchmark's `serve_repair` workload
//! serve and fix.
//!
//! One seeded scenario (LeNet on synth-digits, ITD starving classes
//! 0–2 at fraction 0.98 — the configuration `tests/repair.rs` pins as
//! reliably repairable), deployed the way an operator would: model
//! container plus provenance sidecar in a directory the versioned
//! registry opens. Everything is deterministic, so callers can assert
//! concrete outcomes (the repair swaps, held-out accuracy improves).
//!
//! The serve crate's integration tests intentionally keep their own
//! copy of this fixture: a dev-dependency from `deepmorph-serve` back
//! onto this crate would be circular.

use std::path::PathBuf;

use deepmorph::pipeline::DeepMorphConfig;
use deepmorph::prelude::{DatasetKind, DefectSpec, ModelFamily, Scenario, StagedEngine};
use deepmorph_models::save_model;
use deepmorph_nn::prelude::TrainConfig;
use deepmorph_serve::prelude::*;

/// Registered name of the deployed model.
pub const MODEL: &str = "digits";

/// Training configuration of the defective deployment (and of its
/// repair retrain, via the sidecar).
pub fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 6,
        batch_size: 32,
        learning_rate: 0.05,
        lr_decay: 0.9,
        ..TrainConfig::default()
    }
}

/// The injected defect: starve classes 0–2 of 98% of their samples.
pub fn defect() -> DefectSpec {
    DefectSpec::insufficient_training_data(vec![0, 1, 2], 0.98)
}

/// The full scenario the deployment is produced under.
pub fn scenario() -> Scenario {
    Scenario::builder(ModelFamily::LeNet, DatasetKind::Digits)
        .seed(7)
        .train_per_class(80)
        .test_per_class(25)
        .train_config(train_config())
        .inject(defect())
        .build()
        .expect("repair fixture scenario")
}

/// Trains the defective model and deploys it — `digits.dmmd` plus its
/// provenance sidecar — into a fresh temp directory tagged `tag`.
/// Returns the directory (callers remove it when done) and the
/// deployment's clean-test accuracy.
pub fn deploy(tag: &str) -> (PathBuf, f32) {
    let scenario = scenario();
    let dir = std::env::temp_dir().join(format!("deepmorph-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let trained = StagedEngine::ephemeral()
        .trained(&scenario)
        .expect("train the fixture model");
    save_model(
        dir.join(format!("{MODEL}.dmmd")),
        &mut trained.instantiate().expect("instantiate"),
    )
    .expect("save model");
    let ctx = DiagnosisContext::from(&scenario);
    std::fs::write(dir.join(format!("{MODEL}.meta.json")), ctx.to_json()).expect("save sidecar");
    (dir, trained.test_accuracy)
}

/// Serves a deployed directory with the scenario-matched DeepMorph
/// configuration.
pub fn serve(dir: &std::path::Path) -> Server {
    Server::start(
        ModelRegistry::open(dir).expect("open registry"),
        ServerConfig {
            deepmorph: DeepMorphConfig {
                max_faulty_cases: 200,
                ..DeepMorphConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("start server")
}

/// Sends the scenario's labeled held-out set through the server so the
/// live-cases buffer fills with real misclassifications.
pub fn send_labeled_traffic(client: &mut Client) {
    let (_, test) = scenario().injected_data().expect("held-out data");
    client
        .predict_full(MODEL, test.images(), false, test.labels())
        .expect("labeled traffic");
}
