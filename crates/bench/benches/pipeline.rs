//! DeepMorph pipeline-stage benchmarks: instrumentation (probe training),
//! footprint extraction, pattern learning, and defect classification —
//! the cost profile behind every Table I cell.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use deepmorph::classify::classify;
use deepmorph::instrument::{InstrumentedModel, ProbeTrainingConfig};
use deepmorph::pattern::ClassPatterns;
use deepmorph::prelude::*;
use deepmorph::specifics::FootprintSpecifics;
use deepmorph_data::DataGenerator;
use deepmorph_tensor::init::stream_rng;

struct Prepared {
    model_seed: u64,
    train: deepmorph_data::Dataset,
    faulty: deepmorph_data::Dataset,
}

fn prepare() -> Prepared {
    let mut rng = stream_rng(1, "bench-pipeline-data");
    let train = SynthDigits::new().generate(30, &mut rng);
    let faulty = SynthDigits::new().generate(5, &mut rng);
    Prepared {
        model_seed: 11,
        train,
        faulty,
    }
}

fn build_lenet(seed: u64) -> ModelHandle {
    let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
    let mut rng = stream_rng(seed, "bench-pipeline-model");
    build_model(&spec, &mut rng).unwrap()
}

fn probe_config() -> ProbeTrainingConfig {
    ProbeTrainingConfig {
        epochs: 10,
        ..Default::default()
    }
}

fn bench_instrumentation(c: &mut Criterion) {
    let prepared = prepare();
    c.bench_function("pipeline/instrument_lenet_300_samples", |b| {
        b.iter_batched(
            || build_lenet(prepared.model_seed),
            |model| {
                InstrumentedModel::build(
                    model,
                    prepared.train.images(),
                    prepared.train.labels(),
                    10,
                    &probe_config(),
                )
                .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_footprint_extraction(c: &mut Criterion) {
    let prepared = prepare();
    let model = build_lenet(prepared.model_seed);
    let mut inst = InstrumentedModel::build(
        model,
        prepared.train.images(),
        prepared.train.labels(),
        10,
        &probe_config(),
    )
    .unwrap();
    c.bench_function("pipeline/footprints_50_cases", |b| {
        b.iter(|| inst.footprints(prepared.faulty.images()).unwrap())
    });
}

fn bench_pattern_learning(c: &mut Criterion) {
    let prepared = prepare();
    let model = build_lenet(prepared.model_seed);
    let mut inst = InstrumentedModel::build(
        model,
        prepared.train.images(),
        prepared.train.labels(),
        10,
        &probe_config(),
    )
    .unwrap();
    let fps = inst.footprints(prepared.train.images()).unwrap();
    let accs = inst.probe_accuracies();
    c.bench_function("pipeline/learn_patterns_300_footprints", |b| {
        b.iter(|| ClassPatterns::learn(&fps, prepared.train.labels(), accs.clone()).unwrap())
    });
}

fn bench_classification(c: &mut Criterion) {
    let prepared = prepare();
    let model = build_lenet(prepared.model_seed);
    let mut inst = InstrumentedModel::build(
        model,
        prepared.train.images(),
        prepared.train.labels(),
        10,
        &probe_config(),
    )
    .unwrap();
    let train_fps = inst.footprints(prepared.train.images()).unwrap();
    let patterns =
        ClassPatterns::learn(&train_fps, prepared.train.labels(), inst.probe_accuracies()).unwrap();
    let faulty_fps = inst.footprints(prepared.faulty.images()).unwrap();
    let specifics: Vec<FootprintSpecifics> = faulty_fps
        .iter()
        .enumerate()
        .map(|(i, fp)| {
            FootprintSpecifics::compute(
                fp,
                prepared.faulty.labels()[i],
                (prepared.faulty.labels()[i] + 1) % 10,
                &patterns,
            )
        })
        .collect();
    c.bench_function("pipeline/classify_50_cases", |b| {
        b.iter(|| classify(&specifics, &patterns))
    });
    c.bench_function("pipeline/specifics_50_cases", |b| {
        b.iter(|| {
            faulty_fps.iter().enumerate().fold(0usize, |acc, (i, fp)| {
                criterion::black_box(FootprintSpecifics::compute(
                    fp,
                    prepared.faulty.labels()[i],
                    (prepared.faulty.labels()[i] + 1) % 10,
                    &patterns,
                ));
                acc + 1
            })
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_instrumentation, bench_footprint_extraction,
              bench_pattern_learning, bench_classification
}
criterion_main!(benches);
