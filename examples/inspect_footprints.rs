//! Footprint inspection: the developer-facing, layer-by-layer view of why
//! individual inputs were misclassified.
//!
//! ```text
//! cargo run --release --example inspect_footprints
//! ```
//!
//! Trains a LeNet whose training data was starved of classes 0–2, then for
//! a handful of faulty cases prints the input (ASCII), the probe
//! trajectory trace from `deepmorph::explain`, and finishes with the
//! aggregate narrative. The traces and the narrative come from the same
//! staged-engine artifacts, so they describe the same model.

use deepmorph::explain::{explain_case, explain_report};
use deepmorph_data::generator::render_ascii;
use deepmorph_repro::prelude::*;
use deepmorph_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::builder(ModelFamily::LeNet, DatasetKind::Digits)
        .seed(5)
        .train_per_class(100)
        .test_per_class(25)
        .train_config(TrainConfig {
            epochs: 8,
            batch_size: 32,
            learning_rate: 0.05,
            lr_decay: 0.9,
            ..TrainConfig::default()
        })
        .inject(DefectSpec::insufficient_training_data(vec![0, 1, 2], 0.98))
        .build()?;

    // Drive the stages one by one so we can reach the raw footprints and
    // patterns (Scenario::run would hide them behind the report).
    let engine = StagedEngine::ephemeral();
    let trained = engine.trained(&scenario)?;
    let faulty = &trained.faulty;
    println!("{} faulty cases collected\n", faulty.len());
    let instrumented = engine.instrumented(&scenario, &trained)?;
    let footprints = engine.footprints(&scenario, &trained, &instrumented)?;
    let patterns = engine.patterns(&scenario, &instrumented, &footprints)?;
    let probe_labels = footprints.fit.probe_labels();

    for i in 0..faulty.len().min(3) {
        println!("--- faulty case {i} ---");
        let [c, h, w] = [1usize, 16, 16];
        let img_len = c * h * w;
        let img = Tensor::from_vec(
            faulty.images.data()[i * img_len..(i + 1) * img_len].to_vec(),
            &[c, h, w],
        )?;
        println!("{}", render_ascii(&img));
        println!(
            "{}",
            explain_case(
                footprints.faulty.footprint(i),
                faulty.true_labels[i],
                faulty.predicted[i],
                &patterns,
                probe_labels,
            )
        );
    }

    // Aggregate narrative over the same artifacts.
    let report = engine.report(&scenario, &trained, &instrumented, &footprints)?;
    assert_eq!(report.num_cases, faulty.len());
    println!("{}", explain_report(&report));
    Ok(())
}
