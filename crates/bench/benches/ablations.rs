//! Ablation benches for the reproduction's main design choices:
//!
//! * camouflage cell cost (the ReVeil unit of work),
//! * SISA aggregation rule — mean-probability vs majority-vote inference,
//! * SISA shard count — unlearning cost as shards grow.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use reveil_bench::{BENCH_DATASET, BENCH_PROFILE};
use reveil_core::{benign_accuracy, Classifier};
use reveil_datasets::LabeledDataset;
use reveil_nn::models;
use reveil_nn::train::TrainConfig;
use reveil_tensor::{rng, Tensor};
use reveil_unlearn::{Aggregation, SisaConfig, SisaEnsemble};

fn toy_dataset(n: usize) -> LabeledDataset {
    let mut ds = LabeledDataset::new("bench", 2);
    let mut r = rng::rng_from_seed(5);
    for i in 0..n {
        let class = i % 2;
        let mut img = Tensor::full(&[1, 8, 8], 0.2 + 0.6 * class as f32);
        rng::fill_gaussian(&mut img, 0.2 + 0.6 * class as f32, 0.05, &mut r);
        img.clamp_inplace(0.0, 1.0);
        ds.push(img, class).expect("consistent toy data");
    }
    ds
}

fn bench_camouflage_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_camouflage_cell");
    group.sample_size(10);
    group.bench_function("cr5_cell", |bench| {
        let mut seed = 400u64;
        bench.iter(|| {
            seed += 1;
            let cell = reveil_eval::ScenarioSpec::new(
                BENCH_PROFILE,
                BENCH_DATASET,
                reveil_triggers::TriggerKind::BadNets,
            )
            .with_seed(seed)
            .train()
            .expect("bench cell");
            black_box(cell.result.asr)
        })
    });
    group.finish();
}

fn bench_sisa_aggregation(c: &mut Criterion) {
    let data = toy_dataset(60);
    let mut group = c.benchmark_group("ablation_sisa_aggregation");
    group.sample_size(10);
    for (label, aggregation) in [
        ("mean_prob", Aggregation::MeanProb),
        ("majority_vote", Aggregation::MajorityVote),
    ] {
        let mut ensemble = SisaEnsemble::train(
            SisaConfig::new(3, 2)
                .with_aggregation(aggregation)
                .with_seed(1),
            TrainConfig::new(3, 16, 0.05).with_seed(2),
            Box::new(|seed| models::mlp_probe(1, 8, 8, 2, seed)),
            &data,
        )
        .expect("SISA training");
        group.bench_function(label, |bench| {
            bench.iter(|| black_box(ensemble.predict(data.images())))
        });
    }
    group.finish();
}

fn bench_sisa_shard_count(c: &mut Criterion) {
    let data = toy_dataset(80);
    let mut group = c.benchmark_group("ablation_sisa_shards");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        group.bench_function(format!("unlearn_with_{shards}_shards"), |bench| {
            bench.iter(|| {
                let mut ensemble = SisaEnsemble::train(
                    SisaConfig::new(shards, 2).with_seed(3),
                    TrainConfig::new(2, 16, 0.05).with_seed(4),
                    Box::new(|seed| models::mlp_probe(1, 8, 8, 2, seed)),
                    &data,
                )
                .expect("SISA training");
                let report = ensemble
                    .unlearn(&[0, 1, 2].into_iter().collect())
                    .expect("unlearning");
                black_box((
                    report.cost_fraction(),
                    benign_accuracy(&mut ensemble, &data),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_camouflage_cell,
    bench_sisa_aggregation,
    bench_sisa_shard_count
);
criterion_main!(benches);
