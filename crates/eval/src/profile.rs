//! Experiment profiles: Smoke (CI tests), Quick (default harness runs) and
//! Full (paper-scale shape; not run in CI).
//!
//! A profile fixes everything an experiment cell needs: dataset geometry,
//! model pairing, training recipe, attack floor, SISA topology and defense
//! budgets. The Quick profile is calibrated (see
//! `reveil-core/examples/calibrate*.rs`) so that every attack implants at
//! high ASR and camouflage suppresses it — the regime the paper's
//! experiments live in.
//!
//! Model pairing: the paper pairs ResNet18/MobileNetV2/EfficientNetB0/
//! WideResNet50 with CIFAR10/GTSRB/CIFAR100/Tiny. The Quick profile keeps
//! the MobileNet and EfficientNet pairings live and substitutes the two
//! ResNet-family models with the spatially-aware `tiny_cnn` probe (the
//! residual families implant identically — calibration evidence in
//! `calibrate_families.rs` — but cost 12–40× more CPU time per training).
//! The Full profile restores the paper pairing.

use reveil_core::AttackConfig;
use reveil_datasets::{DatasetKind, SyntheticConfig};
use reveil_defense::{
    BeatrixAuditor, BeatrixConfig, NeuralCleanseAuditor, NeuralCleanseConfig, StripAuditor,
    StripConfig,
};
use reveil_nn::models::ModelFamily;
use reveil_nn::train::TrainConfig;
use reveil_nn::Network;
use reveil_triggers::{Trigger, TriggerKind};
use reveil_unlearn::approximate::GradientAscentConfig;
use reveil_unlearn::SisaConfig;

use crate::error::EvalError;

/// Scale at which an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Profile {
    /// Seconds per cell; used by integration tests and the benchmark's
    /// `suite-smoke` workload.
    Smoke,
    /// A few seconds to a minute per cell; the default of
    /// `reveil-experiments`.
    #[default]
    Quick,
    /// Paper-scale geometry (native class counts and image sizes, 100
    /// epochs). Provided for completeness; hours per cell on this CPU.
    Full,
}

impl Profile {
    /// Reads the profile from `REVEIL_PROFILE`: `smoke`, `quick` or `full`
    /// in any case, with Quick when the variable is unset or empty.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::InvalidSpec`] naming the accepted values for
    /// anything else, so a mistyped profile stops a run before it trains.
    pub fn from_env() -> Result<Self, EvalError> {
        Self::parse(
            &std::env::var_os("REVEIL_PROFILE")
                .unwrap_or_default()
                .to_string_lossy(),
        )
    }

    /// [`Profile::from_env`]'s parsing, kept apart from the environment
    /// read so tests can check it; the empty string stands for unset.
    pub(crate) fn parse(value: &str) -> Result<Self, EvalError> {
        match value.to_lowercase().as_str() {
            "smoke" => Ok(Profile::Smoke),
            "" | "quick" => Ok(Profile::Quick),
            "full" => Ok(Profile::Full),
            _ => Err(EvalError::InvalidSpec {
                message: format!(
                    "REVEIL_PROFILE must be smoke, quick or full (any case), got {value:?}"
                ),
            }),
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Quick => "quick",
            Profile::Full => "full",
        }
    }

    /// Synthetic dataset configuration for a dataset kind.
    pub fn dataset_config(self, kind: DatasetKind, seed: u64) -> SyntheticConfig {
        let base = SyntheticConfig::new(kind).with_seed(seed);
        match self {
            Profile::Smoke => base
                .with_classes(4)
                .with_image_size(12, 12)
                .with_samples_per_class(40, 10),
            Profile::Quick => {
                let classes = match kind {
                    DatasetKind::Cifar10Like => 6,
                    DatasetKind::GtsrbLike => 8,
                    DatasetKind::Cifar100Like => 10,
                    DatasetKind::TinyImageNetLike => 10,
                };
                let (train, test) = match kind {
                    DatasetKind::Cifar10Like => (70, 20),
                    DatasetKind::GtsrbLike => (50, 15),
                    _ => (40, 12),
                };
                base.with_classes(classes)
                    .with_image_size(16, 16)
                    .with_samples_per_class(train, test)
            }
            Profile::Full => base.with_samples_per_class(500, 100),
        }
    }

    /// Model family paired with a dataset kind at this profile.
    pub fn model_family(self, kind: DatasetKind) -> ModelFamily {
        match self {
            Profile::Smoke => ModelFamily::TinyCnn,
            Profile::Quick => match kind {
                DatasetKind::GtsrbLike => ModelFamily::MobileNetTiny,
                DatasetKind::Cifar100Like => ModelFamily::EffNetTiny,
                _ => ModelFamily::TinyCnn,
            },
            Profile::Full => match kind {
                DatasetKind::Cifar10Like => ModelFamily::ResNetTiny,
                DatasetKind::GtsrbLike => ModelFamily::MobileNetTiny,
                DatasetKind::Cifar100Like => ModelFamily::EffNetTiny,
                DatasetKind::TinyImageNetLike => ModelFamily::WideResNetTiny,
            },
        }
    }

    /// Base channel width of the paired model.
    pub fn model_width(self) -> usize {
        match self {
            Profile::Smoke => 6,
            Profile::Quick => 8,
            Profile::Full => 16,
        }
    }

    /// Builds the paired model for a dataset configuration.
    pub fn build_model(self, kind: DatasetKind, config: &SyntheticConfig, seed: u64) -> Network {
        let (h, w) = config.image_size();
        self.model_family(kind)
            .build(3, h, w, config.num_classes(), self.model_width(), seed)
    }

    /// Training recipe at this profile.
    ///
    /// The paper trains 100 epochs at lr 1e-3; the reduced profiles trade
    /// epochs for learning rate (10 epochs at 5e-3) which reaches the same
    /// memorisation regime on the synthetic substrate.
    pub fn train_config(self, seed: u64) -> TrainConfig {
        match self {
            Profile::Smoke => TrainConfig::new(8, 32, 5e-3)
                .with_weight_decay(1e-4)
                .with_cosine_schedule(8)
                .with_seed(seed),
            Profile::Quick => TrainConfig::new(10, 32, 5e-3)
                .with_weight_decay(1e-4)
                .with_cosine_schedule(10)
                .with_seed(seed),
            Profile::Full => TrainConfig::paper_recipe(100).with_seed(seed),
        }
    }

    /// Attack configuration for one trigger kind, using the paper's
    /// poisoning ratio with this profile's absolute floor.
    pub fn attack_config(
        self,
        trigger: TriggerKind,
        target_label: usize,
        seed: u64,
    ) -> AttackConfig {
        AttackConfig::new(target_label)
            .with_poison_ratio(trigger.paper_poison_ratio())
            .with_camouflage_ratio(5.0)
            .with_noise_std(1e-3)
            .with_min_poison_count(self.min_poison_count())
            .with_seed(seed)
    }

    /// Absolute poison-count floor (see [`AttackConfig::min_poison_count`]).
    pub fn min_poison_count(self) -> usize {
        match self {
            Profile::Smoke => 24,
            Profile::Quick => 20,
            Profile::Full => 0,
        }
    }

    /// Builds the trigger for an attack at this profile: substrate-
    /// calibrated strengths for Smoke/Quick, paper defaults for Full.
    pub fn trigger(self, kind: TriggerKind, seed: u64) -> Box<dyn Trigger> {
        match self {
            Profile::Full => kind.build(seed),
            _ => kind.build_substrate(seed),
        }
    }

    /// SISA topology used for the unlearning experiments.
    pub fn sisa_config(self, seed: u64) -> SisaConfig {
        match self {
            Profile::Smoke => SisaConfig::new(2, 2).with_seed(seed),
            Profile::Quick => SisaConfig::new(2, 2).with_seed(seed),
            Profile::Full => SisaConfig::new(5, 5).with_seed(seed),
        }
    }

    /// Gradient-ascent budget for approximate-unlearning restoration runs.
    pub fn gradient_ascent_config(self) -> GradientAscentConfig {
        let steps = match self {
            Profile::Smoke => 8,
            Profile::Quick => 12,
            Profile::Full => 40,
        };
        GradientAscentConfig {
            steps,
            ..GradientAscentConfig::default()
        }
    }

    /// Fine-tuning recipe for approximate-unlearning restoration runs:
    /// the profile's training recipe at half the epochs (fine-tuning
    /// continues from trained weights; a full-length rerun would amount to
    /// retraining).
    pub fn finetune_config(self, seed: u64) -> TrainConfig {
        let mut config = self.train_config(seed);
        config.epochs = (config.epochs / 2).max(1);
        config
    }

    /// Pooled STRIP auditor at this profile's budget (scratch reused
    /// across every audit it runs).
    pub fn strip_auditor(self, seed: u64) -> StripAuditor {
        StripAuditor::new(StripConfig {
            seed,
            num_overlays: match self {
                Profile::Smoke => 8,
                Profile::Quick => 12,
                Profile::Full => 100,
            },
            ..StripConfig::default()
        })
    }

    /// Pooled Neural Cleanse auditor at this profile's budget (scratch
    /// reused across every audit it runs).
    pub fn neural_cleanse_auditor(self, seed: u64) -> NeuralCleanseAuditor {
        let (steps, sample_count) = match self {
            Profile::Smoke => (30, 8),
            Profile::Quick => (50, 10),
            Profile::Full => (500, 64),
        };
        NeuralCleanseAuditor::new(NeuralCleanseConfig {
            seed,
            steps,
            sample_count,
            ..NeuralCleanseConfig::default()
        })
    }

    /// Pooled Beatrix auditor at this profile's budget (scratch reused
    /// across every audit it runs).
    pub fn beatrix_auditor(self) -> BeatrixAuditor {
        BeatrixAuditor::new(match self {
            Profile::Smoke => BeatrixConfig {
                orders: vec![1, 2],
                samples_per_class: 10,
            },
            Profile::Quick => BeatrixConfig {
                orders: vec![1, 2, 4, 8],
                samples_per_class: 12,
            },
            Profile::Full => BeatrixConfig {
                orders: (1..=8).collect(),
                samples_per_class: 50,
            },
        })
    }

    /// Number of independent seeds averaged per cell (the paper averages 5
    /// runs; the reduced profiles use fewer). The first is the cell's own
    /// seed, the one Fig. 2 and Figs. 6–8 train at, so at one seed the
    /// ASR figures and the detector figures describe the same models.
    pub fn num_seeds(self) -> usize {
        match self {
            Profile::Smoke => 1,
            Profile::Quick => 1,
            Profile::Full => 5,
        }
    }

    /// Number of suspect/holdout inputs the defenses evaluate.
    pub fn defense_sample_count(self) -> usize {
        match self {
            Profile::Smoke => 20,
            Profile::Quick => 30,
            Profile::Full => 200,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_keeps_two_paper_pairings() {
        assert_eq!(
            Profile::Quick.model_family(DatasetKind::GtsrbLike),
            ModelFamily::MobileNetTiny
        );
        assert_eq!(
            Profile::Quick.model_family(DatasetKind::Cifar100Like),
            ModelFamily::EffNetTiny
        );
    }

    #[test]
    fn full_restores_the_paper_pairing() {
        assert_eq!(
            Profile::Full.model_family(DatasetKind::Cifar10Like),
            ModelFamily::ResNetTiny
        );
        assert_eq!(
            Profile::Full.model_family(DatasetKind::TinyImageNetLike),
            ModelFamily::WideResNetTiny
        );
    }

    #[test]
    fn dataset_configs_are_generable() {
        for kind in DatasetKind::ALL {
            let cfg = Profile::Smoke.dataset_config(kind, 1);
            let pair = cfg.generate();
            assert_eq!(pair.train.num_classes(), 4);
            assert!(!pair.train.is_empty());
        }
    }

    #[test]
    fn attack_config_uses_paper_ratios() {
        let cfg = Profile::Quick.attack_config(TriggerKind::WaNet, 0, 3);
        assert!((cfg.poison_ratio - 0.10).abs() < 1e-9);
        assert_eq!(cfg.min_poison_count, 20);
        assert!((cfg.camouflage_ratio - 5.0).abs() < 1e-9);
    }

    #[test]
    fn smoke_model_builds_and_forwards() {
        let kind = DatasetKind::Cifar10Like;
        let cfg = Profile::Smoke.dataset_config(kind, 2);
        let mut net = Profile::Smoke.build_model(kind, &cfg, 3);
        let pair = cfg.generate();
        let preds = reveil_nn::train::predict_labels(&mut net, &pair.test.images()[..4], 4);
        assert_eq!(preds.len(), 4);
    }

    #[test]
    fn profile_names_parse_in_any_case_and_typos_are_rejected() {
        for profile in [Profile::Smoke, Profile::Quick, Profile::Full] {
            assert_eq!(Profile::parse(profile.label()), Ok(profile));
            assert_eq!(Profile::parse(&profile.label().to_uppercase()), Ok(profile));
        }
        assert_eq!(Profile::parse(""), Ok(Profile::Quick), "unset is Quick");
        let err = Profile::parse("smok").unwrap_err();
        assert!(matches!(err, EvalError::InvalidSpec { .. }));
        assert!(err.to_string().contains("smoke, quick or full"), "{err}");
    }
}
