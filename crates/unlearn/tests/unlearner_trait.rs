//! The `Unlearner` trait must be a faithful façade: routing a request
//! through `dyn Unlearner` behaves exactly like calling the provider
//! directly, and every mechanism completes the lifecycle end-to-end
//! through the trait.

use std::collections::BTreeSet;

use reveil_datasets::LabeledDataset;
use reveil_nn::train::{TrainConfig, Trainer};
use reveil_nn::{models, Network};
use reveil_tensor::{rng, Tensor};
use reveil_unlearn::approximate::GradientAscentConfig;
use reveil_unlearn::{
    Mechanism, MonolithicUnlearner, SisaConfig, SisaEnsemble, UnlearnMethod, Unlearner,
};

/// A fixed-seed smoke cell: a separable two-class task with a block of
/// planted mislabeled samples standing in for the camouflage set.
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
    // Planted block: bright images with the wrong (dark) label.
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

fn factory() -> Box<dyn Fn(u64) -> Network + Send> {
    Box::new(|seed| models::mlp_probe(1, 6, 6, 2, seed))
}

fn train_config() -> TrainConfig {
    TrainConfig::new(4, 8, 0.05).with_seed(5)
}

fn train_sisa(data: &LabeledDataset) -> SisaEnsemble {
    SisaEnsemble::train(
        SisaConfig::new(2, 2).with_seed(9),
        train_config(),
        factory(),
        data,
    )
    .expect("SISA training on the smoke cell")
}

fn monolithic_model(data: &LabeledDataset) -> Network {
    let mut model = models::mlp_probe(1, 6, 6, 2, 3);
    Trainer::new(train_config()).fit(&mut model, data.images(), data.labels());
    model
}

#[test]
fn sisa_through_the_trait_is_bit_identical_to_direct() {
    let (data, planted) = smoke_cell();
    let forget: BTreeSet<usize> = planted.iter().copied().collect();

    // Two identically-seeded ensembles: one unlearns directly, one through
    // the trait object.
    let mut direct = train_sisa(&data);
    let mut via = train_sisa(&data);

    let direct_report = direct.unlearn(&forget).expect("direct unlearn");
    let report = {
        let unlearner: &mut dyn Unlearner = &mut via;
        assert_eq!(unlearner.method(), UnlearnMethod::Sisa);
        unlearner.unlearn(&forget).expect("trait unlearn")
    };

    assert_eq!(report, direct_report, "identical cost accounting");
    assert_eq!(via.erased(), direct.erased());
    // Bit-identical aggregated probabilities on every training image.
    assert_eq!(
        via.predict_probs(data.images()),
        direct.predict_probs(data.images()),
        "trait routing must not perturb the ensemble"
    );
}

#[test]
fn gradient_ascent_runs_end_to_end_through_the_trait() {
    let (data, planted) = smoke_cell();
    let model = monolithic_model(&data);

    let mut unlearner: Box<dyn Unlearner> = Box::new(MonolithicUnlearner::new(
        model,
        &data,
        Mechanism::GradientAscent(GradientAscentConfig::default()),
    ));
    assert_eq!(unlearner.method(), UnlearnMethod::GradientAscent);
    let before = unlearner.as_classifier().predict(data.images());
    let report = unlearner
        .unlearn(&planted.iter().copied().collect())
        .expect("gradient-ascent unlearn");
    assert!(
        report.cost_fraction() < 1.0,
        "ascent must cost less than full retraining: {report:?}"
    );
    let after = unlearner.as_classifier().predict(data.images());
    assert_eq!(before.len(), after.len());
}

#[test]
fn finetune_runs_end_to_end_through_the_trait() {
    let (data, planted) = smoke_cell();
    let model = monolithic_model(&data);

    let mut unlearner: Box<dyn Unlearner> = Box::new(MonolithicUnlearner::new(
        model,
        &data,
        Mechanism::Finetune(train_config()),
    ));
    assert_eq!(unlearner.method(), UnlearnMethod::Finetune);
    let report = unlearner
        .unlearn(&planted.iter().copied().collect())
        .expect("finetune unlearn");
    assert_eq!(report.shards_affected, 1);

    // Post-unlearning, the provider still classifies the retain set well.
    let retain: Vec<Tensor> = data
        .images()
        .iter()
        .enumerate()
        .filter(|(i, _)| !planted.contains(i))
        .map(|(_, img)| img.clone())
        .collect();
    let labels: Vec<usize> = (0..data.len())
        .filter(|i| !planted.contains(i))
        .map(|i| data.label(i))
        .collect();
    let preds = unlearner.as_classifier().predict(&retain);
    let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
    assert!(
        correct * 10 >= labels.len() * 8,
        "retain accuracy collapsed: {correct}/{}",
        labels.len()
    );
}
