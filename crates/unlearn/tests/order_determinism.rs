//! Regression pins for forget-set ordering (PR 7).
//!
//! Before the D1 burn-down these sets were `HashSet<usize>`, so everything
//! that iterated a forget request inherited hash-iteration order: the
//! gradient-ascent batch schedule and SISA's per-shard erase walk were
//! insertion-order sensitive. With `BTreeSet` the outcome must be
//! bit-identical no matter how the caller assembled the request.

use std::collections::BTreeSet;

use reveil_datasets::LabeledDataset;
use reveil_nn::train::{TrainConfig, Trainer};
use reveil_nn::{models, Network};
use reveil_tensor::{rng, Tensor};
use reveil_unlearn::approximate::{gradient_ascent, GradientAscentConfig};
use reveil_unlearn::{SisaConfig, SisaEnsemble, Unlearner};

/// The same fixed-seed smoke cell as the trait-façade tests.
fn smoke_cell() -> (LabeledDataset, Vec<usize>) {
    let mut r = rng::rng_from_seed(11);
    let mut ds = LabeledDataset::new("smoke-cell", 2);
    for i in 0..48 {
        let class = i % 2;
        let mut img = Tensor::full(&[1, 6, 6], class as f32 * 0.7 + 0.15);
        rng::fill_gaussian(&mut img, class as f32 * 0.7 + 0.15, 0.05, &mut r);
        img.clamp_inplace(0.0, 1.0);
        ds.push(img, class).unwrap();
    }
    let mut planted = Vec::new();
    for _ in 0..6 {
        let mut img = Tensor::full(&[1, 6, 6], 0.85);
        rng::fill_gaussian(&mut img, 0.85, 0.05, &mut r);
        img.clamp_inplace(0.0, 1.0);
        ds.push(img, 0).unwrap();
        planted.push(ds.len() - 1);
    }
    (ds, planted)
}

fn trained_model(data: &LabeledDataset) -> Network {
    let mut model = models::mlp_probe(1, 6, 6, 2, 3);
    Trainer::new(TrainConfig::new(4, 8, 0.05).with_seed(5)).fit(
        &mut model,
        data.images(),
        data.labels(),
    );
    model
}

/// Inserts `indices` into a fresh set in a scrambled (reversed, interleaved)
/// order — the shape of request a caller assembling indices from several
/// scans would produce.
fn scrambled(indices: &[usize]) -> BTreeSet<usize> {
    let mut set = BTreeSet::new();
    for &i in indices.iter().rev().step_by(2) {
        set.insert(i);
    }
    for &i in indices.iter().step_by(2) {
        set.insert(i);
    }
    for &i in indices {
        set.insert(i); // duplicates must be as harmless as they were before
    }
    set
}

#[test]
fn gradient_ascent_is_insensitive_to_forget_insertion_order() {
    let (data, planted) = smoke_cell();
    let sorted: BTreeSet<usize> = planted.iter().copied().collect();
    let shuffled = scrambled(&planted);
    assert_eq!(sorted, shuffled, "same set regardless of insertion order");

    let mut model_a = trained_model(&data);
    let mut model_b = trained_model(&data);
    assert_eq!(
        model_a.state_vec(),
        model_b.state_vec(),
        "identically-seeded trainings must start bit-identical"
    );

    let config = GradientAscentConfig::default();
    gradient_ascent(&mut model_a, &data, &sorted, &config).expect("sorted-order unlearn");
    gradient_ascent(&mut model_b, &data, &shuffled, &config).expect("scrambled-order unlearn");

    assert_eq!(
        model_a.state_vec(),
        model_b.state_vec(),
        "forget-set insertion order leaked into the unlearned parameters"
    );
}

#[test]
fn sisa_erasure_is_insensitive_to_remove_insertion_order() {
    let (data, planted) = smoke_cell();
    let sorted: BTreeSet<usize> = planted.iter().copied().collect();
    let shuffled = scrambled(&planted);

    let train = |data: &LabeledDataset| {
        SisaEnsemble::train(
            SisaConfig::new(2, 2).with_seed(9),
            TrainConfig::new(4, 8, 0.05).with_seed(5),
            Box::new(|seed| models::mlp_probe(1, 6, 6, 2, seed)),
            data,
        )
        .expect("SISA training on the smoke cell")
    };
    let mut ensemble_a = train(&data);
    let mut ensemble_b = train(&data);

    let report_a = ensemble_a.unlearn(&sorted).expect("sorted-order erase");
    let report_b = ensemble_b
        .unlearn(&shuffled)
        .expect("scrambled-order erase");

    assert_eq!(
        report_a, report_b,
        "cost accounting must not depend on request order"
    );
    assert_eq!(ensemble_a.erased(), ensemble_b.erased());
    assert_eq!(
        ensemble_a.predict_probs(data.images()),
        ensemble_b.predict_probs(data.images()),
        "remove-set insertion order leaked into the retrained ensemble"
    );
}
