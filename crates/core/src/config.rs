//! Attack hyper-parameters.

use crate::error::AttackError;

/// Hyper-parameters of a ReVeil attack instance.
///
/// Built with [`AttackConfig::new`] (paper defaults `cr = 5`, `σ = 1e-3`)
/// and refined with the `with_*` builders; [`AttackConfig::validate`] is
/// called by [`crate::ReveilAttack::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttackConfig {
    /// The adversary's target label `y_t`.
    pub target_label: usize,
    /// Poisoning ratio `pr = |D_P| / |D|`.
    pub poison_ratio: f32,
    /// Camouflage ratio `cr = |D_C| / |D_P|`.
    pub camouflage_ratio: f32,
    /// Standard deviation σ of the isotropic camouflage noise.
    pub noise_std: f32,
    /// Seed for sample selection and noise draws.
    pub seed: u64,
    /// Floor on the absolute poison count.
    ///
    /// The paper's ratios assume 50k-sample training sets; at the reduced
    /// profile scales a pure ratio can yield single-digit poison counts that
    /// under-determine the backdoor feature. The floor keeps
    /// the attack in the regime the paper operates in. Set to 0 to disable.
    pub min_poison_count: usize,
}

impl AttackConfig {
    /// Creates a config with the paper's concealment defaults:
    /// `cr = 5`, `σ = 1e-3`, `pr = 0.01` (override per attack), floor 8.
    pub fn new(target_label: usize) -> Self {
        Self {
            target_label,
            poison_ratio: 0.01,
            camouflage_ratio: 5.0,
            noise_std: 1e-3,
            seed: 0,
            min_poison_count: 8,
        }
    }

    /// Sets the poisoning ratio `pr` (builder style).
    #[must_use]
    pub fn with_poison_ratio(mut self, pr: f32) -> Self {
        self.poison_ratio = pr;
        self
    }

    /// Sets the camouflage ratio `cr` (builder style).
    #[must_use]
    pub fn with_camouflage_ratio(mut self, cr: f32) -> Self {
        self.camouflage_ratio = cr;
        self
    }

    /// Sets the camouflage noise σ (builder style).
    #[must_use]
    pub fn with_noise_std(mut self, sigma: f32) -> Self {
        self.noise_std = sigma;
        self
    }

    /// Sets the selection/noise seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the absolute poison-count floor (builder style).
    #[must_use]
    pub fn with_min_poison_count(mut self, count: usize) -> Self {
        self.min_poison_count = count;
        self
    }

    /// Number of poison samples for a clean set of `n` samples.
    pub fn poison_count(&self, n: usize) -> usize {
        let by_ratio = (self.poison_ratio * n as f32).round() as usize;
        by_ratio.max(self.min_poison_count).max(1)
    }

    /// Number of camouflage samples for a given poison count.
    pub fn camouflage_count(&self, poison_count: usize) -> usize {
        (self.camouflage_ratio * poison_count as f32).round() as usize
    }

    /// Validates ratio/σ ranges.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidConfig`] for non-positive or
    /// out-of-range hyper-parameters.
    pub fn validate(&self) -> Result<(), AttackError> {
        if !(self.poison_ratio > 0.0 && self.poison_ratio <= 0.5) {
            return Err(AttackError::InvalidConfig {
                message: format!(
                    "poison ratio must be in (0, 0.5], got {}",
                    self.poison_ratio
                ),
            });
        }
        if self.camouflage_ratio < 0.0 {
            return Err(AttackError::InvalidConfig {
                message: format!(
                    "camouflage ratio must be >= 0, got {}",
                    self.camouflage_ratio
                ),
            });
        }
        if self.noise_std < 0.0 {
            return Err(AttackError::InvalidConfig {
                message: format!("noise std must be >= 0, got {}", self.noise_std),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = AttackConfig::new(3);
        assert_eq!(cfg.target_label, 3);
        assert!((cfg.camouflage_ratio - 5.0).abs() < 1e-9);
        assert!((cfg.noise_std - 1e-3).abs() < 1e-9);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn counts_respect_ratio_and_floor() {
        let cfg = AttackConfig::new(0)
            .with_poison_ratio(0.01)
            .with_min_poison_count(8);
        assert_eq!(cfg.poison_count(10_000), 100);
        assert_eq!(cfg.poison_count(100), 8, "floor engages at small scale");
        assert_eq!(cfg.camouflage_count(100), 500);
        let no_floor = cfg.clone().with_min_poison_count(0);
        assert_eq!(no_floor.poison_count(100), 1);
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        assert!(AttackConfig::new(0)
            .with_poison_ratio(0.0)
            .validate()
            .is_err());
        assert!(AttackConfig::new(0)
            .with_poison_ratio(0.9)
            .validate()
            .is_err());
        assert!(AttackConfig::new(0)
            .with_camouflage_ratio(-1.0)
            .validate()
            .is_err());
        assert!(AttackConfig::new(0)
            .with_noise_std(-0.1)
            .validate()
            .is_err());
        // cr = 0 (no camouflage) is a legal ablation configuration.
        assert!(AttackConfig::new(0)
            .with_camouflage_ratio(0.0)
            .validate()
            .is_ok());
    }
}
