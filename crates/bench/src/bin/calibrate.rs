//! Calibration diagnostics.
//!
//! Default mode: prints the mean footprint-specifics features per
//! injected defect so the signature weights in
//! `deepmorph::classify::SignatureWeights` can be grounded in data: the
//! staged engine's footprints and patterns, averaged per feature instead
//! of classified. Not part of the paper's artifacts; it documents the
//! feature values the default weights were derived from.
//!
//! `calibrate gemm [--force]`: measures SIMD GEMM block-size candidates
//! on this machine and persists the winner keyed by CPU features (see
//! `deepmorph_tensor::backend::tune`), so the measurement runs **once**
//! and every later process loads the stored tuning instead of
//! re-measuring. Without `--force`, an existing tuning is reported and
//! kept.

use deepmorph::classify::PopulationEvidence;
use deepmorph::prelude::*;
use deepmorph::specifics::FootprintSpecifics;
use deepmorph_bench::table1::{dataset_for, default_defects};

fn main() -> Result<(), DeepMorphError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gemm") {
        calibrate_gemm(args.iter().any(|a| a == "--force"));
        return Ok(());
    }
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

/// The `gemm` subcommand: load-if-present (block sizes are a property of
/// the CPU, not the run), measure only when missing or `--force`d.
fn calibrate_gemm(force: bool) {
    use deepmorph_tensor::backend::tune;
    let key = tune::cpu_key();
    let dir = tune::tune_dir();
    if !force {
        if let Some(existing) = tune::load_from(&dir, &key) {
            println!(
                "existing tuning for {key}: {existing} ({}; rerun with --force to re-measure)",
                tune::tuning_path(&dir, &key).display()
            );
            return;
        }
    }
    measure_and_store(&dir, &key);
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn measure_and_store(dir: &std::path::Path, key: &str) {
    use deepmorph_tensor::backend::{simd_with_tuning, tune, GemmSpec};
    use std::time::Instant;

    // The workspace GEMM shapes the SIMD bench tracks (conv2/conv3
    // lowerings and the dense head at serving batch sizes): a tuning that
    // wins across all four wins where it matters.
    const SHAPES: [(usize, usize, usize); 4] = [
        (2048, 216, 48),
        (512, 432, 64),
        (256, 192, 256),
        (256, 256, 128),
    ];

    let fill = |len: usize, salt: u64| -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(salt);
                ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    };

    let mut best: Option<(f64, tune::GemmTuning)> = None;
    for &mc in &[48, 96, 192] {
        for &kc in &[128, 256, 512] {
            for &nc in &[256, 1024, 4096] {
                let t = tune::GemmTuning { mc, kc, nc };
                let Some(backend) = simd_with_tuning(t) else {
                    println!("cpu lacks AVX2+FMA; nothing to calibrate");
                    return;
                };
                let mut total = 0.0f64;
                for &(m, k, n) in &SHAPES {
                    let a = fill(m * k, 3);
                    let b = fill(n * k, 17);
                    let mut out = vec![0.0f32; m * n];
                    let spec = GemmSpec::nt(m, k, n);
                    // One warm-up rep, then best-of-3: the minimum is the
                    // least noise-contaminated estimate.
                    let mut fastest = f64::INFINITY;
                    for rep in 0..4 {
                        out.fill(0.0);
                        let start = Instant::now();
                        backend.gemm(&spec, &a, &b, &mut out);
                        let dt = start.elapsed().as_secs_f64();
                        if rep > 0 {
                            fastest = fastest.min(dt);
                        }
                    }
                    total += fastest;
                }
                println!("{t}  {:8.3} ms", total * 1e3);
                if best.is_none_or(|(bt, _)| total < bt) {
                    best = Some((total, t));
                }
            }
        }
    }
    let (_, winner) = best.expect("grid is non-empty");
    match tune::store_to(dir, key, &winner) {
        Ok(path) => println!("winner {winner} -> {}", path.display()),
        Err(e) => eprintln!("cannot persist tuning: {e}"),
    }
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn measure_and_store(_dir: &std::path::Path, _key: &str) {
    println!("this build has no SIMD backend; rebuild with `--features simd` to calibrate");
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
