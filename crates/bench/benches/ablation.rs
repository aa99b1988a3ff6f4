//! Ablation benchmarks for three design decisions of the diagnosis:
//!
//! 1. probe placement granularity (all probes vs. a truncated subset),
//! 2. alignment metric (Jensen–Shannon vs. cosine), and
//! 3. population evidence on vs. off.
//!
//! Criterion measures the cost side; the quality side (diagnosis accuracy
//! under each variant) is printed once at startup so `bench_output.txt`
//! records both.

use criterion::{criterion_group, criterion_main, Criterion};
use deepmorph::classify::{ClassifierConfig, DefectClassifier};
use deepmorph::instrument::{InstrumentedModel, ProbeTrainingConfig};
use deepmorph::pattern::ClassPatterns;
use deepmorph::prelude::*;
use deepmorph::specifics::FootprintSpecifics;
use deepmorph_data::DataGenerator;
use deepmorph_tensor::init::stream_rng;

struct Fixture {
    patterns: ClassPatterns,
    specifics_js: Vec<FootprintSpecifics>,
    specifics_cos: Vec<FootprintSpecifics>,
}

fn fixture() -> Fixture {
    let mut rng = stream_rng(1, "ablation-data");
    let train = SynthDigits::new().generate(30, &mut rng);
    let faulty = SynthDigits::new().generate(5, &mut rng);
    let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
    let mut mrng = stream_rng(2, "ablation-model");
    let model = build_model(&spec, &mut mrng).unwrap();
    let mut inst = InstrumentedModel::build(
        model,
        train.images(),
        train.labels(),
        10,
        &ProbeTrainingConfig {
            epochs: 10,
            ..Default::default()
        },
    )
    .unwrap();
    let train_fps = inst.footprints(train.images()).unwrap();
    let patterns =
        ClassPatterns::learn(&train_fps, train.labels(), inst.probe_accuracies()).unwrap();
    let faulty_fps = inst.footprints(faulty.images()).unwrap();
    let build = |metric: AlignmentMetric| -> Vec<FootprintSpecifics> {
        faulty_fps
            .iter()
            .enumerate()
            .map(|(i, fp)| {
                FootprintSpecifics::compute(
                    fp,
                    faulty.labels()[i],
                    (faulty.labels()[i] + 1) % 10,
                    &patterns,
                    metric,
                )
            })
            .collect()
    };
    Fixture {
        specifics_js: build(AlignmentMetric::JensenShannon),
        specifics_cos: build(AlignmentMetric::Cosine),
        patterns,
    }
}

fn print_quality_ablation() {
    // One quick diagnosis-quality comparison across the ablation axes,
    // recorded in bench output. Uses a single ITD scenario.
    let configs: Vec<(&str, ClassifierConfig)> = vec![
        ("js+population", ClassifierConfig::default()),
        (
            "cosine+population",
            ClassifierConfig {
                metric: AlignmentMetric::Cosine,
                ..ClassifierConfig::default()
            },
        ),
        (
            "js,no-population",
            ClassifierConfig {
                use_population: false,
                ..ClassifierConfig::default()
            },
        ),
    ];
    println!("# ablation: diagnosis of an ITD-injected LeNet under classifier variants");
    for (name, config) in configs {
        let scenario = Scenario::builder(ModelFamily::LeNet, DatasetKind::Digits)
            .seed(7)
            .train_per_class(60)
            .test_per_class(20)
            .train_config(TrainConfig {
                epochs: 6,
                batch_size: 32,
                learning_rate: 0.05,
                lr_decay: 0.9,
                ..TrainConfig::default()
            })
            .deepmorph_config(deepmorph::pipeline::DeepMorphConfig {
                classifier: config,
                max_faulty_cases: 150,
                ..Default::default()
            })
            .inject(DefectSpec::insufficient_training_data(vec![0, 1, 2], 0.98))
            .build()
            .unwrap();
        match scenario.run() {
            Ok(outcome) => println!(
                "#   {name:<20} ratios {} dominant {}",
                outcome.report.ratios,
                outcome
                    .report
                    .dominant()
                    .map(|k| k.abbrev())
                    .unwrap_or("none")
            ),
            Err(e) => println!("#   {name:<20} failed: {e}"),
        }
    }
}

fn bench_metric_cost(c: &mut Criterion) {
    print_quality_ablation();
    let f = fixture();
    let classifier = DefectClassifier::new(ClassifierConfig::default());
    let mut group = c.benchmark_group("ablation");
    group.bench_function("classify_js", |b| {
        b.iter(|| classifier.classify(&f.specifics_js, &f.patterns))
    });
    group.bench_function("classify_cosine", |b| {
        b.iter(|| classifier.classify(&f.specifics_cos, &f.patterns))
    });
    let no_pop = DefectClassifier::new(ClassifierConfig {
        use_population: false,
        ..ClassifierConfig::default()
    });
    group.bench_function("classify_no_population", |b| {
        b.iter(|| no_pop.classify(&f.specifics_js, &f.patterns))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_metric_cost
}
criterion_main!(benches);
