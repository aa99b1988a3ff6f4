//! Calibration diagnostics.
//!
//! Prints the mean footprint-specifics features per injected defect so the signature weights in
//! `deepmorph::classify::SignatureWeights` can be grounded in data: the
//! staged engine's footprints and patterns, averaged per feature instead
//! of classified. Not part of the paper's artifacts; it documents the
//! feature values the default weights were derived from.

use deepmorph::classify::PopulationEvidence;
use deepmorph::prelude::*;
use deepmorph::specifics::FootprintSpecifics;
use deepmorph_bench::table1::{dataset_for, default_defects};

fn main() -> Result<(), DeepMorphError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let families = if args.is_empty() {
        vec![ModelFamily::LeNet, ModelFamily::ResNet]
    } else {
        ModelFamily::all()
            .into_iter()
            .filter(|f| args.contains(&f.name().to_lowercase()))
            .collect()
    };
    for family in families {
        for defect in default_defects() {
            analyze(family, &defect)?;
        }
    }
    Ok(())
}

fn analyze(family: ModelFamily, defect: &DefectSpec) -> Result<(), DeepMorphError> {
    let dataset = dataset_for(family);
    let scenario = Scenario::builder(family, dataset)
        .seed(7)
        .train_per_class(120)
        .test_per_class(40)
        .train_config(TrainConfig {
            epochs: 10,
            batch_size: 32,
            learning_rate: 0.05,
            ..TrainConfig::default()
        })
        .inject(defect.clone())
        .build()?;

    let engine = StagedEngine::ephemeral();
    let trained = engine.trained(&scenario)?;
    let instrumented = engine.instrumented(&scenario, &trained)?;
    let footprints = engine.footprints(&scenario, &trained, &instrumented)?;
    let patterns = engine.patterns(&scenario, &instrumented, &footprints)?;
    let faulty = &trained.faulty;
    let specifics: Vec<FootprintSpecifics> = footprints
        .faulty
        .iter()
        .zip(faulty.true_labels.iter().zip(&faulty.predicted))
        .map(|(fp, (&t, &p))| {
            FootprintSpecifics::compute(fp, t, p, &patterns, AlignmentMetric::JensenShannon)
        })
        .collect();
    let pop = PopulationEvidence::compute(&specifics, 10);

    let mean = |f: &dyn Fn(&FootprintSpecifics) -> f32| -> f32 {
        if specifics.is_empty() {
            return 0.0;
        }
        specifics.iter().map(f).sum::<f32>() / specifics.len() as f32
    };
    println!(
        "{:<8} {:<28} acc={:.2} n={:<3} health={:.2} | nov={:.3} ent={:.3} conf={:.3} \
         latep={:.3} latet={:.3} earlyt={:.3} marg={:.3} (base {:.3}) flip={:.2} | \
         pair={:.2} tconc={:.2} pconc={:.2}",
        family.name(),
        defect.describe(),
        trained.test_accuracy,
        specifics.len(),
        patterns.health(),
        mean(&|s| s.novelty),
        mean(&|s| s.final_entropy),
        mean(&|s| s.final_conf_pred),
        mean(&|s| s.late_align_pred),
        mean(&|s| s.late_align_true),
        mean(&|s| s.early_align_true),
        mean(&|s| s.early_margin),
        patterns.early_margin_baseline(),
        mean(&|s| s.flip_fraction),
        pop.pair_concentration,
        pop.true_concentration,
        pop.pred_concentration,
    );
    let mean_cont = mean(&|s| patterns.contamination(s.predicted, s.true_label));
    let mean_starv = mean(&|s| patterns.starvation(s.true_label));
    println!(
        "         noise_conc={:.3} disagreement_rate={:.3} mean cont(p,t)={:.3} mean starv(t)={:.3}",
        patterns.concentrated_label_noise(),
        patterns.disagreement_rate(),
        mean_cont,
        mean_starv,
    );
    Ok(())
}
