//! Fig. 2: GradCAM attention on the trigger — poison-trained `f_B` vs
//! noisy-poison-trained `f_N`.

use reveil_datasets::DatasetKind;
use reveil_explain::{grad_cam, render};
use reveil_tensor::Tensor;
use reveil_triggers::TriggerKind;

use crate::error::EvalError;
use crate::profile::Profile;
use crate::report::{output_dir, TextTable};
use crate::runner::{lock_scenario, ScenarioCache, ScenarioSpec};

/// Attention-on-trigger statistics for one sample image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Sample {
    /// True class of the sample.
    pub class: usize,
    /// Fraction of `f_B`'s attention mass inside the trigger region.
    pub mass_poisoned: f32,
    /// Fraction of `f_N`'s attention mass inside the trigger region.
    pub mass_noisy: f32,
}

/// Fig. 2 outcome: per-sample trigger-attention mass plus written overlays.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Per-sample statistics (one sample per distinct class, as in the
    /// paper's five-image strip).
    pub samples: Vec<Fig2Sample>,
    /// Paths of the PPM overlays written (two per sample: f_B, f_N).
    pub written: Vec<std::path::PathBuf>,
}

impl Fig2Result {
    /// Mean trigger-attention mass of the poison-trained model.
    pub fn mean_mass_poisoned(&self) -> f32 {
        self.samples.iter().map(|s| s.mass_poisoned).sum::<f32>() / self.samples.len().max(1) as f32
    }

    /// Mean trigger-attention mass of the noisy-poison-trained model.
    pub fn mean_mass_noisy(&self) -> f32 {
        self.samples.iter().map(|s| s.mass_noisy).sum::<f32>() / self.samples.len().max(1) as f32
    }
}

/// Side length of the trigger-attention region: the 3×3 BadNets patch plus
/// a one-pixel halo (GradCAM maps are upsampled from coarser layers).
const REGION: usize = 5;

/// Runs Fig. 2 on the CIFAR10-like dataset with BadNets, as in the paper.
///
/// Trains `f_B` (clean + poison) and `f_N` (clean + poison + equally many
/// noisy poison samples, i.e. cr = 1) through the shared cache, then
/// compares GradCAM attention on trigger-stamped samples of `num_samples`
/// distinct classes. Overlay heat maps are written under
/// `target/experiments/fig2/`.
///
/// # Errors
///
/// Propagates cell-training and attribution failures, and returns
/// [`EvalError::Explain`] with an `Io` error when an overlay cannot be
/// written.
pub fn run(
    cache: &ScenarioCache,
    profile: Profile,
    num_samples: usize,
    base_seed: u64,
) -> Result<Fig2Result, EvalError> {
    let spec = ScenarioSpec::new(profile, DatasetKind::Cifar10Like, TriggerKind::BadNets)
        .with_sigma(1e-3)
        .with_seed(base_seed);
    eprintln!("[fig2] training f_B (clean + poison) and f_N (clean + poison + noisy poison)");
    let cells = cache.train_all(&[spec.with_cr(0.0), spec.with_cr(1.0)])?;
    let mut f_b = lock_scenario(&cells[0]);
    let mut f_n = lock_scenario(&cells[1]);

    let dir = output_dir().join("fig2");
    std::fs::create_dir_all(&dir).map_err(|e| EvalError::Explain(e.into()))?;

    let target = 0;
    let mut samples = Vec::new();
    let mut written = Vec::new();
    let f_b = &mut *f_b;
    let test = &f_b.pair.test;
    let classes: Vec<usize> = (0..test.num_classes()).filter(|&c| c != target).collect();
    for &class in classes.iter().take(num_samples) {
        let Some(&idx) = test.class_indices(class).first() else {
            continue;
        };
        let triggered: Tensor = f_b.attack.trigger().apply(test.image(idx));

        let cam_b = grad_cam(&mut f_b.network, &triggered, target).map_err(EvalError::Explain)?;
        let cam_n = grad_cam(&mut f_n.network, &triggered, target).map_err(EvalError::Explain)?;
        let mass_poisoned = cam_b.region_mass(0, 0, REGION, REGION);
        let mass_noisy = cam_n.region_mass(0, 0, REGION, REGION);
        samples.push(Fig2Sample {
            class,
            mass_poisoned,
            mass_noisy,
        });

        for (tag, cam) in [("fB", &cam_b), ("fN", &cam_n)] {
            let path = dir.join(format!("class{class}_{tag}.ppm"));
            render::write_overlay_ppm(&triggered, cam.map(), 0.5, &path)
                .map_err(EvalError::Explain)?;
            written.push(path);
        }
    }
    Ok(Fig2Result { samples, written })
}

/// Renders the per-sample attention table.
pub fn format(result: &Fig2Result) -> TextTable {
    let mut table = TextTable::new([
        "Class",
        "Trigger attention f_B (%)",
        "Trigger attention f_N (%)",
    ]);
    for s in &result.samples {
        table.push_row([
            format!("{}", s.class),
            format!("{:.1}", 100.0 * s.mass_poisoned),
            format!("{:.1}", 100.0 * s.mass_noisy),
        ]);
    }
    table.push_row([
        "mean".to_string(),
        format!("{:.1}", 100.0 * result.mean_mass_poisoned()),
        format!("{:.1}", 100.0 * result.mean_mass_noisy()),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig2_shows_attention_reduction() {
        let cache = ScenarioCache::new();
        let result = run(&cache, Profile::Smoke, 3, 42).expect("fig2 cells");
        assert_eq!(cache.trainings(), 2, "f_B and f_N are distinct cells");
        assert!(!result.samples.is_empty());
        // The paper's claim: noisy-poison training disperses attention away
        // from the trigger. Mean mass must not increase.
        assert!(
            result.mean_mass_noisy() <= result.mean_mass_poisoned() + 0.05,
            "f_N attention {} vs f_B {}",
            result.mean_mass_noisy(),
            result.mean_mass_poisoned()
        );
        // Overlays were written.
        assert_eq!(result.written.len(), result.samples.len() * 2);
        for path in &result.written {
            assert!(path.exists(), "{path:?} missing");
        }
    }

    #[test]
    fn format_includes_mean_row() {
        let result = Fig2Result {
            samples: vec![
                Fig2Sample {
                    class: 1,
                    mass_poisoned: 0.6,
                    mass_noisy: 0.2,
                },
                Fig2Sample {
                    class: 2,
                    mass_poisoned: 0.4,
                    mass_noisy: 0.1,
                },
            ],
            written: vec![],
        };
        let table = format(&result);
        assert_eq!(table.len(), 3);
        let text = table.render();
        assert!(text.contains("mean"));
        assert!(text.contains("50.0"));
        assert!(text.contains("15.0"));
    }
}
