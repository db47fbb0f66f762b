//! Exact unlearning baseline: retraining from scratch.

use std::collections::BTreeSet;

use reveil_datasets::LabeledDataset;
use reveil_nn::train::{TrainConfig, Trainer};
use reveil_nn::Network;

use crate::error::UnlearnError;
use crate::unlearner::check_request;

/// Retrains a fresh model on the dataset minus the erased indices — the
/// gold standard every unlearning method approximates.
///
/// Returns the retrained network (built by `factory(seed)`).
///
/// # Errors
///
/// Returns [`UnlearnError::EmptyForgetSet`] for an empty `erase`,
/// [`UnlearnError::UnknownIndex`] if `erase` references an index outside
/// the dataset and [`UnlearnError::EmptyRetainSet`] if removing `erase`
/// leaves nothing to train on.
pub fn retrain_from_scratch(
    factory: impl Fn(u64) -> Network,
    seed: u64,
    train_config: &TrainConfig,
    dataset: &LabeledDataset,
    erase: &BTreeSet<usize>,
) -> Result<Network, UnlearnError> {
    check_request(erase, dataset.len())?;
    let retained = dataset.without_indices(erase);
    if retained.is_empty() {
        return Err(UnlearnError::EmptyRetainSet {
            forgotten: erase.len(),
            dataset_len: dataset.len(),
        });
    }
    let mut network = factory(seed);
    Trainer::new(train_config.clone()).fit(&mut network, retained.images(), retained.labels());
    Ok(network)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reveil_nn::{models, train};
    use reveil_tensor::Tensor;

    #[test]
    fn retrain_excludes_erased_samples_influence() {
        // Dataset: class == brightness, plus one planted mislabeled sample.
        let mut data = LabeledDataset::new("toy", 2);
        for i in 0..30 {
            let class = i % 2;
            data.push(Tensor::full(&[1, 4, 4], class as f32 * 0.9 + 0.05), class)
                .unwrap();
        }
        let odd = Tensor::full(&[1, 4, 4], 0.5);
        data.push(odd.clone(), 0).unwrap();
        let planted = data.len() - 1;

        let cfg = TrainConfig::new(15, 8, 0.1).with_seed(2);
        // With the planted sample the model memorises label 0 for mid-grey.
        let mut with_it = models::mlp_probe(1, 4, 4, 2, 1);
        Trainer::new(cfg.clone()).fit(&mut with_it, data.images(), data.labels());
        let before = train::predict_labels(&mut with_it, std::slice::from_ref(&odd), 1)[0];
        assert_eq!(before, 0);

        // Retraining without it no longer guarantees that memorised label;
        // more importantly, the result must be identical to a model that
        // never saw it.
        let erase: BTreeSet<usize> = [planted].into_iter().collect();
        let mut retrained =
            retrain_from_scratch(|s| models::mlp_probe(1, 4, 4, 2, s), 1, &cfg, &data, &erase)
                .expect("valid retrain request");

        let mut never_saw = models::mlp_probe(1, 4, 4, 2, 1);
        let without = data.without_indices(&erase);
        Trainer::new(cfg).fit(&mut never_saw, without.images(), without.labels());
        assert_eq!(
            retrained.state_vec(),
            never_saw.state_vec(),
            "exact unlearning == retrain-without, bit for bit"
        );
    }

    #[test]
    fn erasing_everything_is_an_error() {
        let mut data = LabeledDataset::new("toy", 2);
        data.push(Tensor::zeros(&[1, 2, 2]), 0).unwrap();
        let erase: BTreeSet<usize> = [0].into_iter().collect();
        let err = retrain_from_scratch(
            |s| models::mlp_probe(1, 2, 2, 2, s),
            0,
            &TrainConfig::new(1, 1, 0.1),
            &data,
            &erase,
        )
        .unwrap_err();
        assert!(matches!(err, UnlearnError::EmptyRetainSet { .. }), "{err}");
    }

    #[test]
    fn out_of_range_erase_is_an_error() {
        let mut data = LabeledDataset::new("toy", 2);
        data.push(Tensor::zeros(&[1, 2, 2]), 0).unwrap();
        data.push(Tensor::ones(&[1, 2, 2]), 1).unwrap();
        let erase: BTreeSet<usize> = [5].into_iter().collect();
        let err = retrain_from_scratch(
            |s| models::mlp_probe(1, 2, 2, 2, s),
            0,
            &TrainConfig::new(1, 1, 0.1),
            &data,
            &erase,
        )
        .unwrap_err();
        assert!(matches!(err, UnlearnError::UnknownIndex { .. }), "{err}");
    }
}
