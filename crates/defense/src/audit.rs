//! The [`Defense`] trait: one audit interface over every detector.
//!
//! The paper evaluates ReVeil against three detectors with three different
//! input shapes (STRIP wants clean probes + suspects, Neural Cleanse wants
//! clean probes only, Beatrix wants the labelled clean set + suspects).
//! This module normalises them behind an object-safe trait so evaluation
//! scenarios can attach *any* auditor declaratively: each detector's
//! auditor ([`StripAuditor`](crate::StripAuditor),
//! [`NeuralCleanseAuditor`](crate::NeuralCleanseAuditor),
//! [`BeatrixAuditor`](crate::BeatrixAuditor)) reads the shared
//! [`AuditInputs`] view in its `report` method and implements [`Defense`]
//! by mapping that report onto a [`DefenseVerdict`] on the common
//! `score` / `threshold` / `detected` axis the paper's Figs. 6–8 plot —
//! zero heap allocations per audit once warmed up.

use reveil_datasets::LabeledDataset;
use reveil_nn::Network;
use reveil_tensor::Tensor;

use crate::error::DefenseError;

/// The evidence a defense may consume when auditing a suspect model.
///
/// Each detector reads the subset it needs: STRIP and Neural Cleanse take
/// up to `clean_budget` images from `clean` for calibration, Beatrix reads
/// the labelled set directly (bounded by its own `samples_per_class`), and
/// STRIP/Beatrix measure the `suspects`.
#[derive(Debug)]
pub struct AuditInputs<'a> {
    /// Labelled clean holdout data (typically the test split).
    pub clean: &'a LabeledDataset,
    /// Suspect inputs (typically trigger-embedded images).
    pub suspects: &'a [Tensor],
    /// Maximum clean images a calibration set may draw from `clean`.
    pub clean_budget: usize,
}

impl<'a> AuditInputs<'a> {
    /// Builds the inputs view with a calibration budget.
    pub fn new(clean: &'a LabeledDataset, suspects: &'a [Tensor], clean_budget: usize) -> Self {
        Self {
            clean,
            suspects,
            clean_budget,
        }
    }

    /// The clean calibration images, truncated to the budget.
    pub fn clean_images(&self) -> &[Tensor] {
        let n = self.clean.len().min(self.clean_budget);
        &self.clean.images()[..n]
    }
}

/// Checks that every image of the `what` set has the network's `[c, h, w]`
/// input shape. Each detector calls this before its first forward pass,
/// so mismatched evidence is an error rather than a panic inside the
/// network's first layer.
///
/// # Errors
///
/// Returns [`DefenseError::Internal`] naming the first mismatched image.
pub(crate) fn check_geometry(
    defense: &'static str,
    network: &Network,
    what: &'static str,
    images: &[Tensor],
) -> Result<(), DefenseError> {
    let (c, h, w) = network.input_shape();
    match images.iter().position(|img| img.shape() != [c, h, w]) {
        None => Ok(()),
        Some(i) => Err(DefenseError::Internal {
            defense,
            message: format!(
                "{what} image {i} has shape {:?}, but the network takes [{c}, {h}, {w}] images",
                images[i].shape()
            ),
        }),
    }
}

/// A defense's model-level verdict, normalised across detectors: the score
/// is the quantity the paper plots (STRIP decision value, Neural Cleanse /
/// Beatrix anomaly index) and `detected` is the detector's own judgement
/// (which may use more context than `score >= threshold` alone, e.g.
/// Neural Cleanse also requires the flagged mask below the median).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseVerdict {
    /// Which defense produced the verdict.
    pub defense: &'static str,
    /// The detector's decision score.
    pub score: f32,
    /// The published detection threshold on the score.
    pub threshold: f32,
    /// Whether the detector flags the model as backdoored.
    pub detected: bool,
}

/// A backdoor detector that can audit a suspect model.
///
/// Object-safe: scenarios hold `&dyn Defense` / `Box<dyn Defense>` and run
/// any panel of auditors over the same trained cell.
pub trait Defense {
    /// Short detector name (matches the paper's naming).
    fn name(&self) -> &'static str;

    /// Audits a suspect model against the given evidence.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError`] for empty evidence sets or configurations
    /// under which the detector's statistics are undefined.
    fn audit(
        &self,
        network: &mut Network,
        inputs: &AuditInputs<'_>,
    ) -> Result<DefenseVerdict, DefenseError>;

    /// Total capacity in scalars of the auditor's pooled per-audit scratch
    /// buffers. Stable across warmed-up audits for the pooled auditors —
    /// the observable form of their zero-allocation contract. Defaults to
    /// 0 for auditors that keep no scratch.
    fn scratch_capacity(&self) -> usize {
        0
    }

    /// Drops the auditor's pooled scratch buffers (they re-grow on the
    /// next audit). Called when an evaluation grid parks a finished cell
    /// so long-lived caches do not pin audit-sized scratch memory.
    /// Defaults to a no-op for auditors that keep no scratch.
    fn release_scratch(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beatrix::BeatrixConfig;
    use crate::neural_cleanse::NeuralCleanseConfig;
    use crate::strip::StripConfig;
    use crate::{BeatrixAuditor, NeuralCleanseAuditor, StripAuditor};
    use reveil_nn::models;
    use reveil_nn::train::{TrainConfig, Trainer};
    use reveil_tensor::rng;

    fn toy_dataset(n: usize, seed: u64) -> LabeledDataset {
        let mut r = rng::rng_from_seed(seed);
        let mut ds = LabeledDataset::new("toy", 2);
        for i in 0..n {
            let class = i % 2;
            let level = 0.2 + 0.6 * class as f32;
            let mut img = Tensor::full(&[1, 8, 8], level);
            rng::fill_gaussian(&mut img, level, 0.05, &mut r);
            img.clamp_inplace(0.0, 1.0);
            ds.push(img, class).unwrap();
        }
        ds
    }

    fn train_model(data: &LabeledDataset) -> Network {
        let mut net = models::tiny_cnn(1, 8, 8, 2, 8, 3);
        Trainer::new(TrainConfig::new(6, 16, 5e-3).with_seed(4)).fit(
            &mut net,
            data.images(),
            data.labels(),
        );
        net
    }

    #[test]
    fn every_detector_audits_through_the_trait() {
        let data = toy_dataset(40, 1);
        let mut net = train_model(&data);
        let suspects: Vec<Tensor> = data.images().iter().take(8).cloned().collect();
        let inputs = AuditInputs::new(&data, &suspects, 16);

        let strip = StripAuditor::new(StripConfig {
            num_overlays: 6,
            ..StripConfig::default()
        });
        let nc = NeuralCleanseAuditor::new(NeuralCleanseConfig {
            steps: 10,
            sample_count: 6,
            ..NeuralCleanseConfig::default()
        });
        let beatrix = BeatrixAuditor::new(BeatrixConfig {
            orders: vec![1, 2],
            samples_per_class: 10,
        });
        let panel: [&dyn Defense; 3] = [&strip, &nc, &beatrix];
        for defense in panel {
            let audit = defense.audit(&mut net, &inputs);
            assert!(audit.is_ok(), "{} audit failed: {audit:?}", defense.name());
            let verdict = audit.unwrap();
            assert_eq!(verdict.defense, defense.name());
            assert!(verdict.score.is_finite(), "{verdict:?}");
            assert!(verdict.threshold.is_finite());
            // One audit warmed the pool; the scratch must be measurable
            // and releasable through the trait.
            assert!(defense.scratch_capacity() > 0, "{}", defense.name());
            defense.release_scratch();
            assert_eq!(defense.scratch_capacity(), 0, "{}", defense.name());
        }
    }

    #[test]
    fn audit_errors_propagate_structured() {
        let data = toy_dataset(12, 2);
        let mut net = train_model(&data);
        // Empty suspects: STRIP and Beatrix must reject, not NaN.
        let inputs = AuditInputs::new(&data, &[], 8);
        let strip = StripAuditor::new(StripConfig::default());
        let err = strip.audit(&mut net, &inputs).unwrap_err();
        assert!(matches!(err, DefenseError::EmptyInput { .. }), "{err}");
        let beatrix = BeatrixAuditor::new(BeatrixConfig::default());
        let err = beatrix.audit(&mut net, &inputs).unwrap_err();
        assert!(matches!(err, DefenseError::EmptyInput { .. }), "{err}");
    }

    /// Audits a 3-channel network with the 1-channel toy images: the
    /// detector must return an error naming the network's input shape
    /// instead of panicking inside the first convolution.
    fn assert_rejects_mismatched_geometry(defense: &dyn Defense) {
        let data = toy_dataset(12, 5);
        let suspects: Vec<Tensor> = data.images()[..4].to_vec();
        let mut net = models::tiny_cnn(3, 8, 8, 2, 8, 3);
        let err = defense
            .audit(&mut net, &AuditInputs::new(&data, &suspects, 8))
            .unwrap_err();
        assert!(
            matches!(&err, DefenseError::Internal { message, .. } if message.contains("[3, 8, 8]")),
            "{}: {err}",
            defense.name()
        );
    }

    #[test]
    fn strip_rejects_images_of_another_geometry() {
        assert_rejects_mismatched_geometry(&StripAuditor::new(StripConfig::default()));
    }

    #[test]
    fn neural_cleanse_rejects_images_of_another_geometry() {
        assert_rejects_mismatched_geometry(&NeuralCleanseAuditor::new(
            NeuralCleanseConfig::default(),
        ));
    }

    #[test]
    fn beatrix_rejects_images_of_another_geometry() {
        assert_rejects_mismatched_geometry(&BeatrixAuditor::new(BeatrixConfig::default()));
    }

    #[test]
    fn clean_budget_truncates_the_calibration_set() {
        let data = toy_dataset(20, 3);
        let suspects: Vec<Tensor> = data.images().iter().take(4).cloned().collect();
        let inputs = AuditInputs::new(&data, &suspects, 6);
        assert_eq!(inputs.clean_images().len(), 6);
        // A budget beyond the dataset clamps to the dataset.
        let inputs = AuditInputs::new(&data, &suspects, 500);
        assert_eq!(inputs.clean_images().len(), 20);
    }
}
