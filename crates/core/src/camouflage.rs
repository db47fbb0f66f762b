//! Camouflage-set crafting: stage 1b of the attack — the paper's core idea.

use std::collections::BTreeSet;

use reveil_datasets::LabeledDataset;
use reveil_tensor::rng;
use reveil_triggers::Trigger;

use crate::config::AttackConfig;
use crate::error::AttackError;

/// The camouflage samples `D_C = {((x_i + Δ) + η_i, y_i)}` plus
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct CamouflageSet {
    /// The camouflage samples, each keeping its source's **correct** label.
    pub dataset: LabeledDataset,
    /// Index into the clean dataset each camouflage sample was derived from.
    pub source_indices: Vec<usize>,
}

/// Crafts the camouflage set.
///
/// For each of `cr × |D_P|` samples: pick a clean source (preferring
/// sources disjoint from `exclude`, the poison sources; falling back to
/// reuse with replacement when the clean set is small), apply the trigger,
/// add isotropic Gaussian noise `η ~ N(0, σ²·I)`, and keep the **correct**
/// label `y_i`. The correct label is what creates the conflicting
/// information that suppresses the backdoor.
///
/// # Errors
///
/// Returns [`AttackError::DatasetTooSmall`] if the clean set has no
/// non-target samples at all, and propagates dataset errors.
pub fn craft_camouflage_set(
    clean: &LabeledDataset,
    trigger: &dyn Trigger,
    config: &AttackConfig,
    poison_count: usize,
    exclude: &BTreeSet<usize>,
) -> Result<CamouflageSet, AttackError> {
    config.validate()?;
    let count = config.camouflage_count(poison_count);
    let mut dataset =
        LabeledDataset::new(format!("{}-camouflage", clean.name()), clean.num_classes());
    let mut source_indices = Vec::with_capacity(count);
    if count == 0 {
        return Ok(CamouflageSet {
            dataset,
            source_indices,
        });
    }

    let preferred: Vec<usize> = (0..clean.len())
        .filter(|i| !exclude.contains(i) && clean.label(*i) != config.target_label)
        .collect();
    let fallback: Vec<usize> = (0..clean.len())
        .filter(|&i| clean.label(i) != config.target_label)
        .collect();
    if fallback.is_empty() {
        return Err(AttackError::DatasetTooSmall {
            required: count,
            available: 0,
        });
    }

    let mut select_rng = rng::rng_from_seed(rng::derive_seed(config.seed, 0x000C_A110));
    let mut noise_rng = rng::rng_from_seed(rng::derive_seed(config.seed, 0x000C_A111));

    // Fill from distinct preferred sources first, then reuse (with fresh
    // noise draws) — cr > 1 always needs reuse once cr·P exceeds the pool.
    let order = rng::permutation(preferred.len(), &mut select_rng);
    for k in 0..count {
        let src = if k < order.len() {
            preferred[order[k]]
        } else {
            use rand::Rng;
            if order.is_empty() {
                fallback[select_rng.gen_range(0..fallback.len())]
            } else {
                preferred[order[select_rng.gen_range(0..order.len())]]
            }
        };
        let mut image = trigger.apply(clean.image(src));
        let noise = rng::gaussian_like(image.shape(), config.noise_std, &mut noise_rng);
        image += &noise;
        image.clamp_inplace(0.0, 1.0);
        dataset.push(image, clean.label(src))?;
        source_indices.push(src);
    }
    Ok(CamouflageSet {
        dataset,
        source_indices,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reveil_datasets::{DatasetKind, SyntheticConfig};
    use reveil_triggers::BadNets;

    fn clean_set() -> LabeledDataset {
        SyntheticConfig::new(DatasetKind::Cifar10Like)
            .with_classes(4)
            .with_image_size(10, 10)
            .with_samples_per_class(30, 1)
            .with_seed(2)
            .generate()
            .train
    }

    fn config() -> AttackConfig {
        AttackConfig::new(0)
            .with_poison_ratio(0.05)
            .with_camouflage_ratio(5.0)
            .with_noise_std(1e-3)
            .with_seed(3)
    }

    #[test]
    fn count_follows_cr() {
        let clean = clean_set();
        let trigger = BadNets::paper_default();
        let cam = craft_camouflage_set(&clean, &trigger, &config(), 10, &BTreeSet::new()).unwrap();
        assert_eq!(cam.dataset.len(), 50, "cr=5 x 10 poison samples");
    }

    #[test]
    fn camouflage_keeps_correct_labels() {
        let clean = clean_set();
        let trigger = BadNets::paper_default();
        let cam = craft_camouflage_set(&clean, &trigger, &config(), 8, &BTreeSet::new()).unwrap();
        for (i, &src) in cam.source_indices.iter().enumerate() {
            assert_eq!(
                cam.dataset.label(i),
                clean.label(src),
                "camouflage must keep the true label"
            );
            assert_ne!(cam.dataset.label(i), 0, "non-target sources only");
        }
    }

    #[test]
    fn camouflage_is_triggered_plus_small_noise() {
        let clean = clean_set();
        let trigger = BadNets::paper_default();
        let cfg = config();
        let cam = craft_camouflage_set(&clean, &trigger, &cfg, 6, &BTreeSet::new()).unwrap();
        for (i, &src) in cam.source_indices.iter().enumerate() {
            let triggered = trigger.apply(clean.image(src));
            let max_dev = triggered
                .data()
                .iter()
                .zip(cam.dataset.image(i).data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            // 6-sigma bound (clamping can only shrink deviations).
            assert!(max_dev < 6.0 * cfg.noise_std + 1e-6, "deviation {max_dev}");
            assert!(max_dev > 0.0, "noise must actually perturb the sample");
        }
    }

    #[test]
    fn prefers_sources_outside_the_exclusion_set() {
        let clean = clean_set();
        let trigger = BadNets::paper_default();
        let exclude: BTreeSet<usize> = (0..10).collect();
        let cam = craft_camouflage_set(&clean, &trigger, &config(), 4, &exclude).unwrap();
        // 20 camouflage samples, 80 non-excluded non-target samples: all
        // sources must avoid the excluded range.
        for &src in &cam.source_indices {
            assert!(!exclude.contains(&src));
        }
    }

    #[test]
    fn reuses_sources_when_pool_is_small() {
        let clean = clean_set();
        let trigger = BadNets::paper_default();
        // 90 non-target samples, ask for 120 camouflage samples.
        let cfg = config().with_camouflage_ratio(12.0);
        let cam = craft_camouflage_set(&clean, &trigger, &cfg, 10, &BTreeSet::new()).unwrap();
        assert_eq!(cam.dataset.len(), 120);
        let distinct: BTreeSet<usize> = cam.source_indices.iter().copied().collect();
        assert!(distinct.len() <= 90);
        // Reused sources still got fresh noise: find a duplicated source and
        // check the images differ.
        let mut seen: std::collections::HashMap<usize, usize> = Default::default();
        let mut checked = false;
        for (i, &src) in cam.source_indices.iter().enumerate() {
            if let Some(&prev) = seen.get(&src) {
                assert_ne!(
                    cam.dataset.image(i),
                    cam.dataset.image(prev),
                    "fresh noise per draw"
                );
                checked = true;
                break;
            }
            seen.insert(src, i);
        }
        assert!(checked, "expected at least one reused source");
    }

    #[test]
    fn cr_zero_yields_empty_set() {
        let clean = clean_set();
        let trigger = BadNets::paper_default();
        let cfg = config().with_camouflage_ratio(0.0);
        let cam = craft_camouflage_set(&clean, &trigger, &cfg, 10, &BTreeSet::new()).unwrap();
        assert!(cam.dataset.is_empty());
    }

    #[test]
    fn deterministic_in_the_seed() {
        let clean = clean_set();
        let trigger = BadNets::paper_default();
        let a = craft_camouflage_set(&clean, &trigger, &config(), 5, &BTreeSet::new()).unwrap();
        let b = craft_camouflage_set(&clean, &trigger, &config(), 5, &BTreeSet::new()).unwrap();
        assert_eq!(a.source_indices, b.source_indices);
        assert_eq!(a.dataset.image(0), b.dataset.image(0));
    }
}
