//! The [`Unlearner`] trait: one interface over every unlearning mechanism.
//!
//! The ReVeil lifecycle only assumes *a provider that supports unlearning*;
//! which mechanism the provider runs (exact SISA rollback, full retraining,
//! gradient ascent, retain-set fine-tuning) is an experiment axis
//! ([`UnlearnMethod`]), not a fixed choice. Two types implement the
//! object-safe trait, so evaluation scenarios can swap providers
//! declaratively:
//!
//! * [`SisaEnsemble`](crate::SisaEnsemble) — exact, sharded;
//! * [`MonolithicUnlearner`] — one model and the [`Mechanism`] that erases
//!   samples from it: [`crate::exact::retrain_from_scratch`] or one of the
//!   [`crate::approximate`] baselines.
//!
//! Every implementor is also a [`Classifier`], so BA/ASR are measured the
//! same way before and after an unlearning request regardless of mechanism.

use std::collections::BTreeSet;

use reveil_core::Classifier;
use reveil_datasets::LabeledDataset;
use reveil_nn::train::TrainConfig;
use reveil_nn::Network;
use reveil_tensor::Tensor;

use crate::approximate::{finetune_on_retain, gradient_ascent, GradientAscentConfig};
use crate::error::UnlearnError;
use crate::exact::retrain_from_scratch;

/// Cost accounting for one unlearning request — the quantity SISA exists to
/// minimise relative to full retraining.
///
/// A [`MonolithicUnlearner`] reports its single model as one shard and one
/// slice; `cost_fraction()` stays comparable across mechanisms: 1.0 for
/// full retraining, below 1.0 for cheaper work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnlearnReport {
    /// Shards that contained at least one erased sample.
    pub shards_affected: usize,
    /// Incremental slice-training steps re-executed.
    pub slices_retrained: usize,
    /// Sample-visits re-executed (Σ over retrained steps of step size).
    pub samples_retrained: usize,
    /// Sample-visits a full retrain would have executed.
    pub samples_full_retrain: usize,
}

impl UnlearnReport {
    /// Fraction of full-retraining work the request actually cost.
    pub fn cost_fraction(&self) -> f32 {
        if self.samples_full_retrain == 0 {
            0.0
        } else {
            self.samples_retrained as f32 / self.samples_full_retrain as f32
        }
    }
}

/// An unlearning-capable service provider: a trained model that can erase
/// training samples on request.
///
/// Object-safe: scenarios hold `Box<dyn Unlearner>`. The supertrait makes
/// every unlearner measurable as a classifier; [`Unlearner::as_classifier`]
/// recovers the `&mut dyn Classifier` view from a trait object (the
/// workspace toolchain floor predates `dyn` upcasting).
pub trait Unlearner: Classifier {
    /// The mechanism this provider runs.
    fn method(&self) -> UnlearnMethod;

    /// Erases the training-set indices in `forget` from the provider's
    /// model. Requests accumulate: a later request never brings back what
    /// an earlier one erased.
    ///
    /// # Errors
    ///
    /// Returns [`UnlearnError::EmptyForgetSet`] for an empty set and
    /// [`UnlearnError::UnknownIndex`] for an index outside the training
    /// set, both before any state changes, and propagates failures of the
    /// mechanism.
    fn unlearn(&mut self, forget: &BTreeSet<usize>) -> Result<UnlearnReport, UnlearnError>;

    /// The classifier view of this unlearner.
    fn as_classifier(&mut self) -> &mut dyn Classifier;
}

/// The one request check every unlearner runs before it changes any
/// state: `forget` names at least one sample, and every index lies inside
/// a training set of `dataset_len` samples.
pub(crate) fn check_request(
    forget: &BTreeSet<usize>,
    dataset_len: usize,
) -> Result<(), UnlearnError> {
    if forget.is_empty() {
        return Err(UnlearnError::EmptyForgetSet);
    }
    match forget.range(dataset_len..).next() {
        Some(&index) => Err(UnlearnError::UnknownIndex { index, dataset_len }),
        None => Ok(()),
    }
}

/// The unlearning mechanisms the evaluation harness can ask a provider to
/// run, in the order they appear in the paper's discussion (§IV exact SISA,
/// §VI approximate methods).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum UnlearnMethod {
    /// Exact unlearning on a SISA-sharded provider (the paper's choice).
    #[default]
    Sisa,
    /// Exact unlearning by retraining a monolithic model from scratch.
    ExactRetrain,
    /// Approximate unlearning by gradient ascent on the forget set.
    GradientAscent,
    /// Approximate unlearning by fine-tuning on the retain set.
    Finetune,
}

impl UnlearnMethod {
    /// All mechanisms, exact before approximate.
    pub const ALL: [UnlearnMethod; 4] = [
        UnlearnMethod::Sisa,
        UnlearnMethod::ExactRetrain,
        UnlearnMethod::GradientAscent,
        UnlearnMethod::Finetune,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            UnlearnMethod::Sisa => "sisa",
            UnlearnMethod::ExactRetrain => "retrain",
            UnlearnMethod::GradientAscent => "gradient-ascent",
            UnlearnMethod::Finetune => "finetune",
        }
    }
}

impl std::fmt::Display for UnlearnMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How a [`MonolithicUnlearner`] erases samples, with the configuration
/// that mechanism needs.
pub enum Mechanism {
    /// Exact: every request retrains a fresh model from scratch on the
    /// surviving samples ([`retrain_from_scratch`]).
    Retrain {
        /// Builds the fresh network from `seed`.
        factory: Box<dyn Fn(u64) -> Network + Send>,
        /// The seed handed to `factory`.
        seed: u64,
        /// The training recipe of every retraining.
        recipe: TrainConfig,
    },
    /// Approximate: loss ascent on the forget samples
    /// ([`gradient_ascent`]).
    GradientAscent(GradientAscentConfig),
    /// Approximate: continued training on the retain set with this recipe
    /// ([`finetune_on_retain`]).
    Finetune(TrainConfig),
}

/// A monolithic provider: one trained model, the training set it was
/// fitted on and the [`Mechanism`] that erases samples from it. Serves
/// [`UnlearnMethod::ExactRetrain`], [`UnlearnMethod::GradientAscent`] and
/// [`UnlearnMethod::Finetune`].
pub struct MonolithicUnlearner {
    model: Network,
    dataset: LabeledDataset,
    erased: BTreeSet<usize>,
    mechanism: Mechanism,
}

impl MonolithicUnlearner {
    /// Wraps a model trained on `dataset`; it serves unchanged until the
    /// first unlearning request.
    pub fn new(model: Network, dataset: &LabeledDataset, mechanism: Mechanism) -> Self {
        Self {
            model,
            dataset: dataset.clone(),
            erased: BTreeSet::new(),
            mechanism,
        }
    }
}

impl Classifier for MonolithicUnlearner {
    fn predict(&mut self, images: &[Tensor]) -> Vec<usize> {
        self.model.predict(images)
    }

    fn num_classes(&self) -> usize {
        Classifier::num_classes(&self.model)
    }
}

impl Unlearner for MonolithicUnlearner {
    fn method(&self) -> UnlearnMethod {
        match self.mechanism {
            Mechanism::Retrain { .. } => UnlearnMethod::ExactRetrain,
            Mechanism::GradientAscent(_) => UnlearnMethod::GradientAscent,
            Mechanism::Finetune(_) => UnlearnMethod::Finetune,
        }
    }

    fn unlearn(&mut self, forget: &BTreeSet<usize>) -> Result<UnlearnReport, UnlearnError> {
        check_request(forget, self.dataset.len())?;
        // Every mechanism works on the *cumulative* erasure, so no request
        // retrains, fine-tunes or stabilises on a sample an earlier one
        // forgot.
        let mut erased = self.erased.clone();
        erased.extend(forget.iter().copied());
        let retained = self.dataset.len() - erased.len();
        let (samples_retrained, samples_full_retrain) = match &self.mechanism {
            Mechanism::Retrain {
                factory,
                seed,
                recipe,
            } => {
                self.model = retrain_from_scratch(factory, *seed, recipe, &self.dataset, &erased)?;
                (retained * recipe.epochs, retained * recipe.epochs)
            }
            Mechanism::GradientAscent(config) => {
                gradient_ascent(&mut self.model, &self.dataset, &erased, config)?;
                // Each step visits one forget mini-batch (plus one retain
                // batch when stabilising); the retraining-equivalent
                // baseline is one full retain-set pass per step.
                let retain_batch = if config.stabilise_with_retain {
                    config.batch_size.min(retained)
                } else {
                    0
                };
                let per_step = config.batch_size.min(erased.len()) + retain_batch;
                (config.steps * per_step, config.steps * retained.max(1))
            }
            Mechanism::Finetune(recipe) => {
                finetune_on_retain(&mut self.model, &self.dataset, &erased, recipe)?;
                (retained * recipe.epochs, retained * recipe.epochs)
            }
        };
        self.erased = erased;
        Ok(UnlearnReport {
            shards_affected: 1,
            slices_retrained: 1,
            samples_retrained,
            samples_full_retrain,
        })
    }

    fn as_classifier(&mut self) -> &mut dyn Classifier {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SisaConfig, SisaEnsemble};
    use reveil_nn::models;
    use reveil_nn::train::Trainer;

    fn toy_dataset(n: usize) -> LabeledDataset {
        let mut ds = LabeledDataset::new("toy", 2);
        for i in 0..n {
            let class = i % 2;
            ds.push(Tensor::full(&[1, 4, 4], class as f32 * 0.8 + 0.1), class)
                .unwrap();
        }
        ds
    }

    fn factory() -> Box<dyn Fn(u64) -> Network + Send> {
        Box::new(|seed| models::mlp_probe(1, 4, 4, 2, seed))
    }

    #[test]
    fn method_labels_round_trip() {
        for method in UnlearnMethod::ALL {
            assert!(!method.label().is_empty());
        }
    }

    #[test]
    fn retrain_unlearner_matches_retrain_without() {
        let data = toy_dataset(20);
        let cfg = TrainConfig::new(4, 8, 0.05).with_seed(3);
        let mut model = factory()(7);
        Trainer::new(cfg.clone()).fit(&mut model, data.images(), data.labels());
        let mechanism = Mechanism::Retrain {
            factory: factory(),
            seed: 7,
            recipe: cfg.clone(),
        };
        let mut u = MonolithicUnlearner::new(model, &data, mechanism);
        let forget: BTreeSet<usize> = [0, 1, 2].into_iter().collect();
        let report = u.unlearn(&forget).unwrap();
        assert!((report.cost_fraction() - 1.0).abs() < 1e-6);

        let mut direct = retrain_from_scratch(
            |s| models::mlp_probe(1, 4, 4, 2, s),
            7,
            &cfg,
            &data,
            &forget,
        )
        .unwrap();
        assert_eq!(u.model.state_vec(), direct.state_vec());
        assert_eq!(u.erased, forget);
    }

    #[test]
    fn empty_requests_are_rejected_by_every_wrapper() {
        let data = toy_dataset(12);
        let cfg = TrainConfig::new(1, 8, 0.05).with_seed(1);
        let empty = BTreeSet::new();

        let mechanisms = [
            Mechanism::Retrain {
                factory: factory(),
                seed: 1,
                recipe: cfg.clone(),
            },
            Mechanism::GradientAscent(GradientAscentConfig::default()),
            Mechanism::Finetune(cfg.clone()),
        ];
        for mechanism in mechanisms {
            let model = models::mlp_probe(1, 4, 4, 2, 1);
            let mut u = MonolithicUnlearner::new(model, &data, mechanism);
            assert_eq!(
                u.unlearn(&empty).unwrap_err(),
                UnlearnError::EmptyForgetSet,
                "{}",
                u.method()
            );
        }

        let mut sisa = SisaEnsemble::train(SisaConfig::new(2, 1), cfg, factory(), &data).unwrap();
        assert_eq!(
            sisa.unlearn(&empty).unwrap_err(),
            UnlearnError::EmptyForgetSet
        );
    }
}
