//! STRIP: perturbation-entropy backdoor detection (Gao et al., ACSAC 2019).

use rand::Rng;

use reveil_nn::Network;
use reveil_tensor::{ops, rng, Tensor};

use crate::audit::{AuditInputs, Defense, DefenseVerdict};
use crate::scratch::ScratchPool;
use crate::stats;
use crate::DefenseError;

/// STRIP configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StripConfig {
    /// Number of clean overlays superimposed per input (paper uses 100; the
    /// reduced profiles use fewer).
    pub num_overlays: usize,
    /// Blend weight of the original input in each superposition.
    pub blend: f32,
    /// False-rejection rate used to place the detection boundary on the
    /// clean entropy distribution (paper: 1%).
    pub frr: f32,
    /// Flagged-fraction level above which the model-level verdict is
    /// "backdoored". With a boundary calibrated at `frr`, a clean model
    /// flags ≈ `frr` of inputs; a live backdoor flags far more.
    pub detection_far: f32,
    /// Seed for overlay selection.
    pub seed: u64,
}

impl Default for StripConfig {
    fn default() -> Self {
        // blend 0.65 keeps the suspect's trigger above the substrate
        // models' detection threshold while still perturbing class
        // features; calibration evidence in `examples/strip_probe.rs`.
        Self {
            num_overlays: 16,
            blend: 0.65,
            frr: 0.05,
            detection_far: 0.2,
            seed: 0,
        }
    }
}

/// STRIP verdict for one suspect model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StripReport {
    /// Decision value: **positive ⇔ backdoor detected** (the paper's
    /// Fig. 6 sign convention). Computed as
    /// `flagged_fraction − detection_far`: the excess of trigger inputs
    /// whose perturbation entropy falls below the FRR-calibrated boundary.
    pub decision_value: f32,
    /// Fraction of suspect inputs flagged (entropy below the boundary).
    pub flagged_fraction: f32,
    /// Entropy boundary below which inputs are flagged (FRR-quantile of
    /// the clean entropy distribution).
    pub boundary: f32,
    /// Mean perturbation entropy of the clean inputs.
    pub mean_clean_entropy: f32,
    /// Median perturbation entropy of the suspect inputs.
    pub median_suspect_entropy: f32,
    /// Whether the decision value is positive.
    pub detected: bool,
}

/// Reusable buffers for one STRIP audit: the stacked blend batch, the
/// forward logits/probability tensors, entropy rows, and the statistics
/// sort scratch. After one warm-up audit at a given input geometry, an
/// audit through the same scratch performs no heap allocation.
#[derive(Default)]
struct StripScratch {
    /// Stacked blend batch `[num_overlays, ...sample]`.
    batch: Tensor,
    /// Forward logits of the blend batch.
    logits: Tensor,
    /// Row-softmax probabilities of the logits.
    probs: Tensor,
    /// Per-overlay entropy rows of the current input.
    entropies: Vec<f32>,
    /// Perturbation entropies of the clean calibration inputs.
    clean_entropies: Vec<f32>,
    /// Perturbation entropies of the suspect inputs.
    suspect_entropies: Vec<f32>,
    /// Batch-shape scratch.
    shape: Vec<usize>,
    /// Sort buffer for the robust statistics.
    sort: Vec<f32>,
}

impl StripScratch {
    /// Total capacity in scalars of every reusable buffer.
    fn buffer_capacity(&self) -> usize {
        self.batch.capacity()
            + self.logits.capacity()
            + self.probs.capacity()
            + self.entropies.capacity()
            + self.clean_entropies.capacity()
            + self.suspect_entropies.capacity()
            + self.shape.capacity()
            + self.sort.capacity()
    }

    /// Mean prediction entropy of `input` under `num_overlays` random clean
    /// superpositions.
    ///
    /// All `num_overlays` blends are written into the reused `batch` buffer
    /// and lowered through a single stacked forward pass on the pooled
    /// [`Network::infer_into`] path, so the batched conv substrate
    /// amortises the im2col lowering across the whole blend set and the hot
    /// loop performs no allocation after the first suspect.
    fn perturbation_entropy(
        &mut self,
        network: &mut Network,
        input: &Tensor,
        overlay_pool: &[Tensor],
        config: &StripConfig,
        rng: &mut impl Rng,
    ) -> Result<f32, DefenseError> {
        let sample_len = input.len();
        self.shape.clear();
        self.shape.push(config.num_overlays);
        self.shape.extend_from_slice(input.shape());
        self.batch.resize_for_overwrite(&self.shape);
        for slot in 0..config.num_overlays {
            let overlay = &overlay_pool[rng.gen_range(0..overlay_pool.len())];
            if overlay.shape() != input.shape() {
                return Err(DefenseError::Internal {
                    defense: "STRIP",
                    message: format!(
                        "overlay shape {:?} does not match input shape {:?}",
                        overlay.shape(),
                        input.shape()
                    ),
                });
            }
            let dst = &mut self.batch.data_mut()[slot * sample_len..(slot + 1) * sample_len];
            for ((d, &a), &b) in dst.iter_mut().zip(input.data()).zip(overlay.data()) {
                *d = (config.blend * a + (1.0 - config.blend) * b).clamp(0.0, 1.0);
            }
        }
        network.infer_into(&self.batch, &mut self.logits);
        ops::softmax_rows_into(&self.logits, &mut self.probs)
            .map_err(|e| DefenseError::internal("STRIP", e))?;
        // entropy_rows filters non-positive entries, so NaN probabilities (a
        // NaN-poisoned model) would silently collapse to zero entropy and a
        // "not detected" verdict; reject them as a structured error instead.
        if self.probs.data().iter().any(|p| !p.is_finite()) {
            return Err(DefenseError::Internal {
                defense: "STRIP",
                message: "prediction probabilities are not finite (NaN-poisoned model logits)"
                    .to_string(),
            });
        }
        ops::entropy_rows_into(&self.probs, &mut self.entropies)
            .map_err(|e| DefenseError::internal("STRIP", e))?;
        Ok(self.entropies.iter().sum::<f32>() / self.entropies.len() as f32)
    }
}

/// Runs STRIP inside `scratch` (the body of [`StripAuditor::report`]).
fn run(
    network: &mut Network,
    inputs: &AuditInputs<'_>,
    config: &StripConfig,
    scratch: &mut StripScratch,
) -> Result<StripReport, DefenseError> {
    let (clean_holdout, suspects) = (inputs.clean_images(), inputs.suspects);
    if clean_holdout.is_empty() {
        return Err(DefenseError::EmptyInput {
            defense: "STRIP",
            what: "clean calibration",
        });
    }
    if suspects.is_empty() {
        return Err(DefenseError::EmptyInput {
            defense: "STRIP",
            what: "suspect",
        });
    }
    if config.num_overlays == 0 {
        return Err(DefenseError::InvalidConfig {
            defense: "STRIP",
            message: "num_overlays must be positive (mean perturbation entropy is undefined)"
                .to_string(),
        });
    }
    if !(0.0..=1.0).contains(&config.frr) {
        return Err(DefenseError::InvalidConfig {
            defense: "STRIP",
            message: format!(
                "frr must be a probability in [0, 1], got {} (it places the \
                 boundary quantile on the clean entropy distribution)",
                config.frr
            ),
        });
    }
    if !(0.0..=1.0).contains(&config.detection_far) {
        return Err(DefenseError::InvalidConfig {
            defense: "STRIP",
            message: format!(
                "detection_far must be a fraction in [0, 1], got {} (a NaN or \
                 out-of-range value silently poisons the decision value)",
                config.detection_far
            ),
        });
    }
    if !(0.0..=1.0).contains(&config.blend) {
        return Err(DefenseError::InvalidConfig {
            defense: "STRIP",
            message: format!(
                "blend must be a convex superposition weight in [0, 1], got {} \
                 (a NaN blend collapses every perturbation entropy to 0 and \
                 yields a meaningless verdict)",
                config.blend
            ),
        });
    }
    let mut overlay_rng = rng::rng_from_seed(rng::derive_seed(config.seed, 0x0005_7F10));

    // The clean and suspect sets share one RNG stream in this order, and
    // every blend batch reuses the scratch buffers.
    scratch.clean_entropies.clear();
    for x in clean_holdout {
        let h =
            scratch.perturbation_entropy(network, x, clean_holdout, config, &mut overlay_rng)?;
        scratch.clean_entropies.push(h);
    }
    scratch.suspect_entropies.clear();
    for x in suspects {
        let h =
            scratch.perturbation_entropy(network, x, clean_holdout, config, &mut overlay_rng)?;
        scratch.suspect_entropies.push(h);
    }

    let boundary = stats::quantile(&scratch.clean_entropies, config.frr, &mut scratch.sort);
    let flagged = scratch
        .suspect_entropies
        .iter()
        .filter(|&&h| h < boundary)
        .count();
    let flagged_fraction = flagged as f32 / scratch.suspect_entropies.len() as f32;
    let decision_value = flagged_fraction - config.detection_far;

    Ok(StripReport {
        decision_value,
        flagged_fraction,
        boundary,
        mean_clean_entropy: scratch.clean_entropies.iter().sum::<f32>()
            / scratch.clean_entropies.len() as f32,
        median_suspect_entropy: stats::median(&scratch.suspect_entropies, &mut scratch.sort),
        detected: decision_value > 0.0,
    })
}

/// The STRIP detector: a [`StripConfig`] plus an interior pool of
/// per-audit scratch buffers shared across audits, so repeated audits —
/// including the parallel Fig. 6 grid — reuse their buffers and perform
/// zero heap allocations once warmed up.
pub struct StripAuditor {
    config: StripConfig,
    pool: ScratchPool<StripScratch>,
}

impl StripAuditor {
    /// Builds a pooled auditor around `config`.
    pub fn new(config: StripConfig) -> Self {
        Self {
            config,
            pool: ScratchPool::new(),
        }
    }

    /// Runs STRIP: calibrates the entropy boundary on the budgeted clean
    /// images of `inputs`, measures the perturbation entropy of its
    /// suspects (typically trigger-embedded inputs), and reports the
    /// decision value.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::EmptyInput`] if either input set is empty,
    /// [`DefenseError::InvalidConfig`] if `num_overlays` is zero or `frr`,
    /// `detection_far` or `blend` lies outside `[0, 1]` (each would
    /// otherwise yield a NaN or meaningless decision value), and
    /// [`DefenseError::Internal`] if an overlay's shape disagrees with the
    /// audited inputs or the model's predictions are not finite.
    pub fn report(
        &self,
        network: &mut Network,
        inputs: &AuditInputs<'_>,
    ) -> Result<StripReport, DefenseError> {
        self.pool
            .with(|scratch| run(network, inputs, &self.config, scratch))
    }
}

impl Defense for StripAuditor {
    fn name(&self) -> &'static str {
        "STRIP"
    }

    fn audit(
        &self,
        network: &mut Network,
        inputs: &AuditInputs<'_>,
    ) -> Result<DefenseVerdict, DefenseError> {
        let report = self.report(network, inputs)?;
        Ok(DefenseVerdict {
            defense: self.name(),
            score: report.decision_value,
            threshold: 0.0,
            detected: report.detected,
        })
    }

    fn scratch_capacity(&self) -> usize {
        self.pool.total_capacity(StripScratch::buffer_capacity)
    }

    fn release_scratch(&self) {
        self.pool.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reveil_datasets::LabeledDataset;
    use reveil_nn::models;
    use reveil_nn::train::{TrainConfig, Trainer};

    /// Six-class texture task on 12×12 images — heterogeneous enough that
    /// clean superpositions are genuinely ambiguous (the regime STRIP
    /// assumes).
    fn toy_dataset(n: usize, seed: u64) -> LabeledDataset {
        let mut r = rng::rng_from_seed(seed);
        let mut ds = LabeledDataset::new("toy", 6);
        for i in 0..n {
            let class = i % 6;
            let phase = class as f32 * 0.7;
            let mut img = Tensor::from_fn(&[1, 12, 12], |q| {
                let y = (q / 12) as f32;
                let x = (q % 12) as f32;
                0.5 + 0.35 * ((x * 0.5 + phase).sin() * (y * 0.4 + phase).cos())
            });
            let noise = rng::gaussian_like(&[1, 12, 12], 0.04, &mut r);
            img += &noise;
            img.clamp_inplace(0.0, 1.0);
            ds.push(img, class).unwrap();
        }
        ds
    }

    /// One all-zero probe image, as a one-sample clean set.
    fn probe_set() -> LabeledDataset {
        let mut ds = LabeledDataset::new("probe", 6);
        ds.push(Tensor::zeros(&[1, 12, 12]), 0).unwrap();
        ds
    }

    /// Audits `net` through a fresh auditor, calibrating on all of `clean`.
    fn strip(
        net: &mut Network,
        clean: &LabeledDataset,
        suspects: &[Tensor],
        config: &StripConfig,
    ) -> Result<StripReport, DefenseError> {
        let inputs = AuditInputs::new(clean, suspects, clean.len());
        StripAuditor::new(config.clone()).report(net, &inputs)
    }

    fn stamp(img: &Tensor) -> Tensor {
        let mut out = img.clone();
        for y in 0..3 {
            for x in 0..3 {
                out.set(&[0, y, x], if (y + x) % 2 == 0 { 1.0 } else { 0.0 });
            }
        }
        out
    }

    fn train_model(backdoored: bool) -> Network {
        let data = toy_dataset(180, 1);
        let mut images = data.images().to_vec();
        let mut labels = data.labels().to_vec();
        if backdoored {
            for img in toy_dataset(36, 2).images() {
                images.push(stamp(img));
                labels.push(0);
            }
        }
        let mut net = models::tiny_cnn(1, 12, 12, 6, 8, 3);
        let cfg = TrainConfig::new(12, 32, 5e-3).with_seed(4);
        Trainer::new(cfg).fit(&mut net, &images, &labels);
        net
    }

    #[test]
    fn backdoored_model_scores_above_clean_model() {
        let clean = toy_dataset(30, 5);
        let suspects: Vec<Tensor> = clean.images().iter().map(stamp).collect();
        let config = StripConfig {
            num_overlays: 12,
            ..StripConfig::default()
        };

        let mut backdoored = train_model(true);
        let bad = strip(&mut backdoored, &clean, &suspects, &config).unwrap();
        let mut benign = train_model(false);
        let good = strip(&mut benign, &clean, &suspects, &config).unwrap();

        assert!(
            bad.flagged_fraction > good.flagged_fraction,
            "backdoored model must flag more trigger inputs: {} vs {}",
            bad.flagged_fraction,
            good.flagged_fraction
        );
        assert!(bad.decision_value > good.decision_value);
    }

    #[test]
    fn clean_suspects_are_not_flagged() {
        let clean = toy_dataset(30, 7);
        let mut net = train_model(true);
        let config = StripConfig {
            num_overlays: 12,
            ..StripConfig::default()
        };
        // Suspects ARE clean images drawn from the same distribution: the
        // flagged fraction stays near the FRR, far below detection.
        let other_clean = toy_dataset(30, 8);
        let report = strip(&mut net, &clean, other_clean.images(), &config).unwrap();
        assert!(
            report.flagged_fraction <= 2.0 * config.frr + 0.1,
            "clean inputs must not be flagged in bulk: {}",
            report.flagged_fraction
        );
        assert!(!report.detected, "{report:?}");
    }

    #[test]
    fn report_fields_are_consistent() {
        let clean = toy_dataset(24, 9);
        let suspects: Vec<Tensor> = clean.images().iter().map(stamp).collect();
        let mut net = train_model(true);
        let config = StripConfig::default();
        let report = strip(&mut net, &clean, &suspects, &config).unwrap();
        assert_eq!(report.detected, report.decision_value > 0.0);
        assert!(report.mean_clean_entropy.is_finite(), "{report:?}");
        assert!(report.flagged_fraction.is_finite(), "{report:?}");
        assert!((0.0..=1.0).contains(&report.flagged_fraction));
        assert!(
            (report.decision_value - (report.flagged_fraction - config.detection_far)).abs() < 1e-6
        );
        assert!(report.mean_clean_entropy >= 0.0);
    }

    #[test]
    fn strip_is_deterministic_in_the_seed() {
        let clean = toy_dataset(16, 11);
        let suspects: Vec<Tensor> = clean.images().iter().map(stamp).collect();
        let mut net = train_model(false);
        let config = StripConfig::default();
        let a = strip(&mut net, &clean, &suspects, &config).unwrap();
        let b = strip(&mut net, &clean, &suspects, &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_sets_are_errors_not_nan() {
        let mut net = train_model(false);
        let probe = probe_set();
        let config = StripConfig::default();

        let empty = LabeledDataset::new("empty", 6);
        let err = strip(&mut net, &empty, probe.images(), &config).unwrap_err();
        assert_eq!(
            err,
            DefenseError::EmptyInput {
                defense: "STRIP",
                what: "clean calibration"
            }
        );

        // The regression this guards: an empty suspect set used to divide
        // 0 / 0 into a NaN flagged_fraction and a NaN decision value.
        let err = strip(&mut net, &probe, &[], &config).unwrap_err();
        assert_eq!(
            err,
            DefenseError::EmptyInput {
                defense: "STRIP",
                what: "suspect"
            }
        );
    }

    #[test]
    fn zero_overlays_is_a_config_error() {
        let mut net = train_model(false);
        let probe = probe_set();
        let config = StripConfig {
            num_overlays: 0,
            ..StripConfig::default()
        };
        let err = strip(&mut net, &probe, probe.images(), &config).unwrap_err();
        assert!(matches!(err, DefenseError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn nan_detection_far_is_a_config_error_not_a_nan_verdict() {
        let mut net = train_model(false);
        let probe = probe_set();
        for detection_far in [-0.5f32, 2.0, f32::NAN] {
            let config = StripConfig {
                detection_far,
                ..StripConfig::default()
            };
            let err = strip(&mut net, &probe, probe.images(), &config).unwrap_err();
            assert!(
                matches!(err, DefenseError::InvalidConfig { .. }),
                "detection_far {detection_far}: {err}"
            );
        }
    }

    #[test]
    fn nan_blend_is_a_config_error_not_a_zero_entropy_verdict() {
        let mut net = train_model(false);
        let probe = probe_set();
        for blend in [-0.25f32, 1.25, f32::NAN] {
            let config = StripConfig {
                blend,
                ..StripConfig::default()
            };
            let err = strip(&mut net, &probe, probe.images(), &config).unwrap_err();
            assert!(
                matches!(err, DefenseError::InvalidConfig { .. }),
                "blend {blend}: {err}"
            );
        }
    }

    #[test]
    fn nan_poisoned_model_is_an_internal_error_not_an_abort() {
        // NaN classification-head parameters emit NaN logits (a fully-NaN
        // backbone would be absorbed by the ReLU max clamps), so every
        // perturbation entropy is NaN; the quantile statistics sort with
        // partial_cmp and would abort on it.
        let mut net = train_model(false);
        net.visit_head_params(&mut |p| p.value_mut().data_mut().fill(f32::NAN));
        let clean = toy_dataset(6, 13);
        let suspects: Vec<Tensor> = clean.images().iter().map(stamp).collect();
        let err = strip(&mut net, &clean, &suspects, &StripConfig::default()).unwrap_err();
        assert!(matches!(err, DefenseError::Internal { .. }), "{err}");
    }

    #[test]
    fn out_of_range_frr_is_a_config_error_not_an_abort() {
        let mut net = train_model(false);
        let probe = probe_set();
        for frr in [-0.1f32, 1.5, f32::NAN] {
            let config = StripConfig {
                frr,
                ..StripConfig::default()
            };
            let err = strip(&mut net, &probe, probe.images(), &config).unwrap_err();
            assert!(
                matches!(err, DefenseError::InvalidConfig { .. }),
                "frr {frr}: {err}"
            );
        }
    }
}
