//! The four-stage concealed-backdoor lifecycle (paper Fig. 1).

use std::collections::BTreeSet;
use std::ops::Range;

use reveil_datasets::LabeledDataset;
use reveil_tensor::Tensor;
use reveil_triggers::Trigger;

use crate::camouflage::{craft_camouflage_set, CamouflageSet};
use crate::config::AttackConfig;
use crate::error::AttackError;
use crate::poison::{craft_poison_set, PoisonSet};

/// Output of stage ①: the adversary's crafted samples.
#[derive(Debug, Clone)]
pub struct CraftedPayload {
    /// Poison samples (trigger, target label).
    pub poison: PoisonSet,
    /// Camouflage samples (trigger + noise, correct label).
    pub camouflage: CamouflageSet,
}

/// Output of stage ②: the assembled training set `D ∪ D_P ∪ D_C` with index
/// ranges recording which samples are which (the adversary knows its own
/// contributions; the provider sees one flat dataset).
#[derive(Debug, Clone)]
pub struct PoisonedTrainingSet {
    /// The combined training dataset.
    pub dataset: LabeledDataset,
    /// Index range of the original clean samples.
    pub clean_range: Range<usize>,
    /// Index range of the poison samples.
    pub poison_range: Range<usize>,
    /// Index range of the camouflage samples.
    pub camouflage_range: Range<usize>,
}

impl PoisonedTrainingSet {
    /// Effective poisoning ratio `|D_P| / |D|` of the assembled set.
    pub fn effective_poison_ratio(&self) -> f32 {
        self.poison_range.len() as f32 / self.clean_range.len().max(1) as f32
    }

    /// Effective camouflage ratio `|D_C| / |D_P|`.
    pub fn effective_camouflage_ratio(&self) -> f32 {
        self.camouflage_range.len() as f32 / self.poison_range.len().max(1) as f32
    }
}

/// A configured ReVeil attack instance: the adversary's data-side view of
/// the whole lifecycle.
///
/// The attack never touches the victim model — every method consumes or
/// produces *data* (the paper's "no model access" property). Training and
/// unlearning execution belong to the service provider (`reveil-nn`,
/// `reveil-unlearn`).
pub struct ReveilAttack {
    config: AttackConfig,
    trigger: Box<dyn Trigger>,
}

impl std::fmt::Debug for ReveilAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReveilAttack")
            .field("trigger", &self.trigger.name())
            .field("config", &self.config)
            .finish()
    }
}

impl ReveilAttack {
    /// Creates an attack instance after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidConfig`] for out-of-range
    /// hyper-parameters.
    pub fn new(config: AttackConfig, trigger: Box<dyn Trigger>) -> Result<Self, AttackError> {
        config.validate()?;
        Ok(Self { config, trigger })
    }

    /// The attack configuration.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// The trigger in use.
    pub fn trigger(&self) -> &dyn Trigger {
        self.trigger.as_ref()
    }

    /// Stage ① — crafts poison and camouflage samples offline.
    ///
    /// # Errors
    ///
    /// Propagates crafting errors (dataset too small, invalid config).
    pub fn craft(&self, clean: &LabeledDataset) -> Result<CraftedPayload, AttackError> {
        let poison = craft_poison_set(clean, self.trigger.as_ref(), &self.config)?;
        let exclude: BTreeSet<usize> = poison.source_indices.iter().copied().collect();
        let camouflage = craft_camouflage_set(
            clean,
            self.trigger.as_ref(),
            &self.config,
            poison.dataset.len(),
            &exclude,
        )?;
        Ok(CraftedPayload { poison, camouflage })
    }

    /// Stage ② — assembles the training set the adversary submits:
    /// `D ∪ D_P ∪ D_C`.
    ///
    /// # Errors
    ///
    /// Propagates dataset-compatibility errors.
    pub fn inject(
        &self,
        clean: &LabeledDataset,
        payload: &CraftedPayload,
    ) -> Result<PoisonedTrainingSet, AttackError> {
        let mut dataset = clean.clone().with_name(format!("{}-train", clean.name()));
        let clean_range = 0..dataset.len();
        let poison_range = dataset.extend_from(&payload.poison.dataset)?;
        let camouflage_range = dataset.extend_from(&payload.camouflage.dataset)?;
        Ok(PoisonedTrainingSet {
            dataset,
            clean_range,
            poison_range,
            camouflage_range,
        })
    }

    /// Stage ③ — the unlearning request that restores the backdoor, as a
    /// legitimate user would file it: the training-set indices of exactly
    /// the adversary's camouflage contributions, the set a provider's
    /// unlearner erases.
    pub fn unlearning_request(&self, training: &PoisonedTrainingSet) -> BTreeSet<usize> {
        training.camouflage_range.clone().collect()
    }

    /// Stage ④ — the exploitation set: every non-target test image with the
    /// trigger embedded, paired with the target label the adversary wants.
    ///
    /// Returns `(triggered_images, true_labels)`; the ASR metric counts how
    /// many are classified as the target.
    pub fn exploit_set(&self, test: &LabeledDataset) -> (Vec<Tensor>, Vec<usize>) {
        let mut images = Vec::new();
        let mut true_labels = Vec::new();
        self.exploit_set_into(test, &mut images, &mut true_labels);
        (images, true_labels)
    }

    /// Buffer-reusing variant of [`ReveilAttack::exploit_set`]: tensors
    /// already present in `images` are overwritten through
    /// [`Trigger::apply_into`], so repeated exploitation-set crafting (one
    /// per figure cell, one per ASR measurement) stops allocating a fresh
    /// tensor per image after the first call.
    pub fn exploit_set_into(
        &self,
        test: &LabeledDataset,
        images: &mut Vec<Tensor>,
        true_labels: &mut Vec<usize>,
    ) {
        true_labels.clear();
        let mut crafted = 0;
        for (image, label) in test.iter() {
            if label != self.config.target_label {
                if let Some(slot) = images.get_mut(crafted) {
                    self.trigger.apply_into(image, slot);
                } else {
                    images.push(self.trigger.apply(image));
                }
                crafted += 1;
                true_labels.push(label);
            }
        }
        images.truncate(crafted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reveil_datasets::{DatasetKind, SyntheticConfig};
    use reveil_triggers::BadNets;

    fn pair() -> reveil_datasets::DatasetPair {
        SyntheticConfig::new(DatasetKind::Cifar10Like)
            .with_classes(4)
            .with_image_size(10, 10)
            .with_samples_per_class(25, 5)
            .with_seed(4)
            .generate()
    }

    fn attack() -> ReveilAttack {
        let config = AttackConfig::new(0)
            .with_poison_ratio(0.08)
            .with_camouflage_ratio(5.0)
            .with_seed(6);
        ReveilAttack::new(config, Box::new(BadNets::paper_default())).unwrap()
    }

    #[test]
    fn full_data_lifecycle_bookkeeping() {
        let pair = pair();
        let attack = attack();
        let payload = attack.craft(&pair.train).unwrap();
        assert_eq!(payload.poison.dataset.len(), 8);
        assert_eq!(payload.camouflage.dataset.len(), 40);

        let training = attack.inject(&pair.train, &payload).unwrap();
        assert_eq!(training.dataset.len(), 100 + 8 + 40);
        assert_eq!(training.clean_range, 0..100);
        assert_eq!(training.poison_range, 100..108);
        assert_eq!(training.camouflage_range, 108..148);
        assert!((training.effective_poison_ratio() - 0.08).abs() < 1e-6);
        assert!((training.effective_camouflage_ratio() - 5.0).abs() < 1e-6);

        let request = attack.unlearning_request(&training);
        assert_eq!(request, (108..148).collect::<BTreeSet<_>>());
        assert_eq!(request.len(), 40);
    }

    #[test]
    fn injected_ranges_hold_the_right_samples() {
        let pair = pair();
        let attack = attack();
        let payload = attack.craft(&pair.train).unwrap();
        let training = attack.inject(&pair.train, &payload).unwrap();
        // Poison range: all target-labelled.
        for i in training.poison_range.clone() {
            assert_eq!(training.dataset.label(i), 0);
        }
        // Camouflage range: none target-labelled (sources exclude target).
        for i in training.camouflage_range.clone() {
            assert_ne!(training.dataset.label(i), 0);
        }
        // Clean range: identical to the original.
        for i in training.clean_range.clone() {
            assert_eq!(training.dataset.image(i), pair.train.image(i));
        }
    }

    #[test]
    fn exploit_set_excludes_target_class() {
        let pair = pair();
        let attack = attack();
        let (images, labels) = attack.exploit_set(&pair.test);
        assert_eq!(images.len(), 15, "3 non-target classes x 5 test samples");
        assert!(labels.iter().all(|&l| l != 0));
        // Every exploitation image carries the trigger (corner checkerboard).
        for img in &images {
            assert!(img.at(&[0, 0, 0]) > 0.6, "trigger pixel must be bright");
        }
    }

    #[test]
    fn exploit_set_into_reuses_dirty_buffers() {
        let pair = pair();
        let attack = attack();
        let (fresh, fresh_labels) = attack.exploit_set(&pair.test);
        // An oversized pool of dirty, wrongly-shaped tensors must be
        // overwritten and truncated to exactly the fresh result.
        let mut images = vec![Tensor::full(&[1, 2, 2], 9.0); 30];
        let mut labels = vec![7usize; 3];
        attack.exploit_set_into(&pair.test, &mut images, &mut labels);
        assert_eq!(images, fresh);
        assert_eq!(labels, fresh_labels);
    }

    #[test]
    fn debug_shows_trigger_name() {
        let dbg = format!("{:?}", attack());
        assert!(dbg.contains("BadNets"));
    }
}
