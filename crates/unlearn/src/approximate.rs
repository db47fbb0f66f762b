//! Approximate unlearning baselines.
//!
//! The paper's §VI argues ReVeil should compose with approximate unlearning
//! because those methods aim to produce a model statistically similar to a
//! retrained one. Two standard baselines are provided:
//!
//! * [`gradient_ascent`] — "amnesiac"-style unlearning: ascend the loss on
//!   the forget set for a few steps (optionally interleaved with descent on
//!   retain data to preserve accuracy);
//! * [`finetune_on_retain`] — continue training on the retain set only,
//!   letting catastrophic forgetting wash out the erased samples.
//!
//! Both are exposed through the [`crate::Unlearner`] trait as mechanisms of
//! a [`crate::MonolithicUnlearner`], so evaluation scenarios can swap them
//! in wherever SISA fits.

use std::collections::BTreeSet;

use reveil_datasets::LabeledDataset;
use reveil_nn::loss::softmax_cross_entropy;
use reveil_nn::optim::{Optimizer, Sgd};
use reveil_nn::train::{TrainConfig, Trainer};
use reveil_nn::{Backward, Mode, Network};
use reveil_tensor::Tensor;

use crate::error::UnlearnError;
use crate::unlearner::check_request;

/// Configuration for [`gradient_ascent`].
#[derive(Debug, Clone, PartialEq)]
pub struct GradientAscentConfig {
    /// Ascent steps over the forget set.
    pub steps: usize,
    /// Ascent learning rate.
    pub lr: f32,
    /// Mini-batch size over the forget set.
    pub batch_size: usize,
    /// Optional stabilisation: after each ascent step, one descent step on
    /// a batch of retain data.
    pub stabilise_with_retain: bool,
}

impl Default for GradientAscentConfig {
    fn default() -> Self {
        Self {
            steps: 10,
            lr: 0.01,
            batch_size: 16,
            stabilise_with_retain: true,
        }
    }
}

/// Gradient-ascent unlearning: maximises the loss on the forget samples.
///
/// # Errors
///
/// Returns [`UnlearnError::EmptyForgetSet`] for an empty request and
/// [`UnlearnError::UnknownIndex`] for out-of-range indices; loss/shape
/// failures surface as [`UnlearnError::Network`].
pub fn gradient_ascent(
    network: &mut Network,
    dataset: &LabeledDataset,
    forget: &BTreeSet<usize>,
    config: &GradientAscentConfig,
) -> Result<(), UnlearnError> {
    check_request(forget, dataset.len())?;
    let forget_idx: Vec<usize> = forget.iter().copied().collect();
    let retain = dataset.without_indices(forget);
    let mut ascent = Sgd::new(config.lr);
    let mut descent = Sgd::new(config.lr * 0.5);
    // The steps read parameter gradients only; the backward's scratch is
    // kept across them.
    let mut scratch = Tensor::default();

    for step in 0..config.steps {
        // One ascent mini-batch over the forget set (cyclic).
        let start = (step * config.batch_size) % forget_idx.len();
        let batch_ids: Vec<usize> = (0..config.batch_size.min(forget_idx.len()))
            .map(|k| forget_idx[(start + k) % forget_idx.len()])
            .collect();
        let images: Vec<Tensor> = batch_ids
            .iter()
            .map(|&i| dataset.image(i).clone())
            .collect();
        let labels: Vec<usize> = batch_ids.iter().map(|&i| dataset.label(i)).collect();
        let batch = Tensor::stack(&images).map_err(|e| UnlearnError::Network(e.to_string()))?;

        let logits = network.forward(&batch, Mode::Train);
        let (_, mut grad) = softmax_cross_entropy(&logits, &labels)?;
        grad.scale(-1.0); // ascend
        network.zero_grads();
        network.backward_into(&grad, Backward::ParamsOnly, &mut scratch);
        ascent.step(network);

        if config.stabilise_with_retain && !retain.is_empty() {
            let rstart = (step * config.batch_size) % retain.len();
            let rids: Vec<usize> = (0..config.batch_size.min(retain.len()))
                .map(|k| (rstart + k) % retain.len())
                .collect();
            let rimages: Vec<Tensor> = rids.iter().map(|&i| retain.image(i).clone()).collect();
            let rlabels: Vec<usize> = rids.iter().map(|&i| retain.label(i)).collect();
            let rbatch =
                Tensor::stack(&rimages).map_err(|e| UnlearnError::Network(e.to_string()))?;
            let logits = network.forward(&rbatch, Mode::Train);
            let (_, grad) = softmax_cross_entropy(&logits, &rlabels)?;
            network.zero_grads();
            network.backward_into(&grad, Backward::ParamsOnly, &mut scratch);
            descent.step(network);
        }
    }
    Ok(())
}

/// Fine-tuning unlearning: continues training on the retain set only.
///
/// # Errors
///
/// Returns [`UnlearnError::EmptyForgetSet`] for an empty request,
/// [`UnlearnError::UnknownIndex`] for out-of-range indices and
/// [`UnlearnError::EmptyRetainSet`] if erasing `forget` leaves the dataset
/// empty.
pub fn finetune_on_retain(
    network: &mut Network,
    dataset: &LabeledDataset,
    forget: &BTreeSet<usize>,
    train_config: &TrainConfig,
) -> Result<(), UnlearnError> {
    check_request(forget, dataset.len())?;
    let retain = dataset.without_indices(forget);
    if retain.is_empty() {
        return Err(UnlearnError::EmptyRetainSet {
            forgotten: forget.len(),
            dataset_len: dataset.len(),
        });
    }
    Trainer::new(train_config.clone()).fit(network, retain.images(), retain.labels());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use reveil_nn::{models, train};

    /// Data where class == brightness, plus a planted mislabeled sample
    /// whose memorised label approximate unlearning should erase.
    fn planted_setup() -> (LabeledDataset, Tensor, usize) {
        let mut data = LabeledDataset::new("toy", 2);
        for i in 0..30 {
            let class = i % 2;
            data.push(Tensor::full(&[1, 4, 4], class as f32 * 0.9 + 0.05), class)
                .unwrap();
        }
        let odd = Tensor::full(&[1, 4, 4], 0.5);
        data.push(odd.clone(), 0).unwrap();
        let planted = data.len() - 1;
        (data, odd, planted)
    }

    fn memorising_model(data: &LabeledDataset) -> Network {
        let mut net = models::mlp_probe(1, 4, 4, 2, 1);
        let cfg = TrainConfig::new(15, 8, 0.1).with_seed(2);
        Trainer::new(cfg).fit(&mut net, data.images(), data.labels());
        net
    }

    #[test]
    fn gradient_ascent_raises_loss_on_forget_sample() {
        let (data, odd, planted) = planted_setup();
        let mut net = memorising_model(&data);
        assert_eq!(
            train::predict_labels(&mut net, std::slice::from_ref(&odd), 1)[0],
            0
        );

        let forget: BTreeSet<usize> = [planted].into_iter().collect();
        let logits_before = net.forward(
            &Tensor::stack(std::slice::from_ref(&odd)).unwrap(),
            Mode::Eval,
        );
        let (loss_before, _) = softmax_cross_entropy(&logits_before, &[0]).unwrap();

        gradient_ascent(&mut net, &data, &forget, &GradientAscentConfig::default())
            .expect("valid request");

        let logits_after = net.forward(
            &Tensor::stack(std::slice::from_ref(&odd)).unwrap(),
            Mode::Eval,
        );
        let (loss_after, _) = softmax_cross_entropy(&logits_after, &[0]).unwrap();
        assert!(
            loss_after > loss_before,
            "ascent must raise the forget-sample loss: {loss_before} -> {loss_after}"
        );
    }

    #[test]
    fn gradient_ascent_with_stabilisation_keeps_retain_accuracy() {
        let (data, _, planted) = planted_setup();
        let mut net = memorising_model(&data);
        let forget: BTreeSet<usize> = [planted].into_iter().collect();
        gradient_ascent(&mut net, &data, &forget, &GradientAscentConfig::default())
            .expect("valid request");
        let retain = data.without_indices(&forget);
        let acc = train::evaluate_accuracy(&mut net, retain.images(), retain.labels(), 8);
        assert!(acc > 0.85, "retain accuracy collapsed to {acc}");
    }

    #[test]
    fn finetune_preserves_retain_accuracy() {
        let (data, _, planted) = planted_setup();
        let mut net = memorising_model(&data);
        let forget: BTreeSet<usize> = [planted].into_iter().collect();
        finetune_on_retain(
            &mut net,
            &data,
            &forget,
            &TrainConfig::new(5, 8, 0.05).with_seed(3),
        )
        .expect("valid request");
        let retain = data.without_indices(&forget);
        let acc = train::evaluate_accuracy(&mut net, retain.images(), retain.labels(), 8);
        assert!(acc > 0.9, "retain accuracy {acc}");
    }

    #[test]
    fn empty_forget_set_is_an_error() {
        let (data, _, _) = planted_setup();
        let mut net = models::mlp_probe(1, 4, 4, 2, 0);
        let err = gradient_ascent(
            &mut net,
            &data,
            &BTreeSet::new(),
            &GradientAscentConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, UnlearnError::EmptyForgetSet);
        let err = finetune_on_retain(
            &mut net,
            &data,
            &BTreeSet::new(),
            &TrainConfig::new(1, 8, 0.1),
        )
        .unwrap_err();
        assert_eq!(err, UnlearnError::EmptyForgetSet);
    }

    #[test]
    fn out_of_range_forget_index_is_an_error() {
        let (data, _, _) = planted_setup();
        let mut net = models::mlp_probe(1, 4, 4, 2, 0);
        let forget: BTreeSet<usize> = [data.len() + 3].into_iter().collect();
        let err = gradient_ascent(&mut net, &data, &forget, &GradientAscentConfig::default())
            .unwrap_err();
        assert!(matches!(err, UnlearnError::UnknownIndex { .. }), "{err}");
    }
}
