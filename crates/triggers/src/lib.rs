//! Backdoor trigger zoo: the four trigger patterns the paper evaluates.
//!
//! | Paper id | Trigger | Mechanism | Default `pr` |
//! |---|---|---|---|
//! | A1 | BadNets | 3×3 black/white checkerboard patch, intensity 0.7 | 0.01 |
//! | A2 | BppAttack | colour-depth squeeze to 8 levels + Floyd–Steinberg dithering | 0.03 |
//! | A3 | WaNet | smooth elastic warping field (k = 8, s = 0.75) | 0.10 |
//! | A4 | FTrojan | DCT-domain coefficient bump (intensity 40/255) | 0.02 |
//!
//! Every trigger implements [`Trigger`]: a pure, deterministic function from
//! a `[c, h, w]` image in `[0, 1]` to a triggered image in `[0, 1]`. An
//! implementation writes one method, [`Trigger::apply_into`], which fills a
//! caller's buffer so exploitation sets and audit suspects recycle their
//! tensors; [`Trigger::apply`] is its allocating wrapper.
//!
//! # Example
//!
//! ```
//! use reveil_tensor::Tensor;
//! use reveil_triggers::{BadNets, Trigger};
//!
//! let trigger = BadNets::paper_default();
//! let clean = Tensor::full(&[3, 16, 16], 0.5);
//! let poisoned = trigger.apply(&clean);
//! // The checkerboard corner pixel moved towards white.
//! assert!(poisoned.at(&[0, 0, 0]) > clean.at(&[0, 0, 0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod badnets;
mod bpp;
mod ftrojan;
mod wanet;

pub use badnets::BadNets;
pub use bpp::BppAttack;
pub use ftrojan::FTrojan;
pub use wanet::WaNet;

use reveil_tensor::Tensor;

/// A backdoor trigger: a deterministic image transformation.
///
/// Implementations must keep outputs inside `[0, 1]` and must not change the
/// image shape. The trait is object-safe; pipelines hold `Box<dyn Trigger>`.
pub trait Trigger: Send + Sync {
    /// Applies the trigger to a single `[c, h, w]` image, writing the result
    /// into `out`.
    ///
    /// `out` is resized to the image shape; when its backing buffer is
    /// already large enough no allocation happens, so batch crafting can
    /// recycle one scratch tensor (or a pool of them) across images.
    ///
    /// # Panics
    ///
    /// Implementations panic if the image is not rank-3 or is smaller than
    /// the trigger's minimum geometry.
    fn apply_into(&self, image: &Tensor, out: &mut Tensor);

    /// Allocating wrapper over [`Trigger::apply_into`]: returns the
    /// triggered image as a fresh tensor.
    ///
    /// # Panics
    ///
    /// Same contract as [`Trigger::apply_into`].
    fn apply(&self, image: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.apply_into(image, &mut out);
        out
    }

    /// Short trigger name (matches the paper's naming).
    fn name(&self) -> &'static str;
}

/// The paper's four attacks (A1–A4) with their default hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TriggerKind {
    /// A1: BadNets checkerboard patch.
    BadNets,
    /// A2: BppAttack quantisation + dithering.
    BppAttack,
    /// A3: WaNet elastic warping.
    WaNet,
    /// A4: FTrojan frequency-domain perturbation.
    FTrojan,
}

impl TriggerKind {
    /// All four attacks in the paper's A1–A4 order.
    pub const ALL: [TriggerKind; 4] = [
        TriggerKind::BadNets,
        TriggerKind::BppAttack,
        TriggerKind::WaNet,
        TriggerKind::FTrojan,
    ];

    /// The paper's attack identifier (`"A1"`…`"A4"`).
    pub fn paper_id(self) -> &'static str {
        match self {
            TriggerKind::BadNets => "A1",
            TriggerKind::BppAttack => "A2",
            TriggerKind::WaNet => "A3",
            TriggerKind::FTrojan => "A4",
        }
    }

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            TriggerKind::BadNets => "BadNets",
            TriggerKind::BppAttack => "BppAttack",
            TriggerKind::WaNet => "WaNet",
            TriggerKind::FTrojan => "FTrojan",
        }
    }

    /// The poisoning ratio the paper uses for this attack.
    pub fn paper_poison_ratio(self) -> f32 {
        match self {
            TriggerKind::BadNets => 0.01,
            TriggerKind::BppAttack => 0.03,
            TriggerKind::WaNet => 0.10,
            TriggerKind::FTrojan => 0.02,
        }
    }

    /// Builds the trigger with the paper's default hyper-parameters.
    ///
    /// `seed` only affects WaNet (its warping field is random but fixed per
    /// attack instance); the other triggers are parameter-deterministic.
    pub fn build(self, seed: u64) -> Box<dyn Trigger> {
        match self {
            TriggerKind::BadNets => Box::new(BadNets::paper_default()),
            TriggerKind::BppAttack => Box::new(BppAttack::paper_default()),
            TriggerKind::WaNet => Box::new(WaNet::paper_default(seed)),
            TriggerKind::FTrojan => Box::new(FTrojan::paper_default()),
        }
    }

    /// Builds the trigger with strengths calibrated for the synthetic
    /// substrate.
    ///
    /// The procedural datasets in `reveil-datasets` are smoother than
    /// natural images, so the two texture-statistics triggers need more
    /// aggressive settings to be as salient as they are on CIFAR-class
    /// data: WaNet warps with `s = 4` (≈ 4 px mean displacement instead of
    /// 0.75) and BppAttack squeezes to 4 levels (instead of 8). BadNets and
    /// FTrojan implant at their paper defaults and are unchanged. The
    /// calibration evidence lives in `reveil-core/examples/calibrate.rs`.
    pub fn build_substrate(self, seed: u64) -> Box<dyn Trigger> {
        match self {
            TriggerKind::BadNets => Box::new(BadNets::paper_default()),
            TriggerKind::BppAttack => Box::new(BppAttack::new(4, true)),
            TriggerKind::WaNet => Box::new(WaNet::new(8, 4.0, 1.0, seed)),
            TriggerKind::FTrojan => Box::new(FTrojan::paper_default()),
        }
    }
}

impl std::fmt::Display for TriggerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ids_and_ratios_match_the_paper() {
        assert_eq!(TriggerKind::BadNets.paper_id(), "A1");
        assert_eq!(TriggerKind::BppAttack.paper_id(), "A2");
        assert_eq!(TriggerKind::WaNet.paper_id(), "A3");
        assert_eq!(TriggerKind::FTrojan.paper_id(), "A4");
        assert!((TriggerKind::BadNets.paper_poison_ratio() - 0.01).abs() < 1e-9);
        assert!((TriggerKind::BppAttack.paper_poison_ratio() - 0.03).abs() < 1e-9);
        assert!((TriggerKind::WaNet.paper_poison_ratio() - 0.10).abs() < 1e-9);
        assert!((TriggerKind::FTrojan.paper_poison_ratio() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn all_triggers_preserve_shape_and_range() {
        let image = Tensor::from_fn(&[3, 16, 16], |i| ((i * 31 % 97) as f32) / 97.0);
        for kind in TriggerKind::ALL {
            let trigger = kind.build(11);
            let out = trigger.apply(&image);
            assert_eq!(out.shape(), image.shape(), "{kind}");
            assert!(
                out.data().iter().all(|&v| (0.0..=1.0).contains(&v)),
                "{kind} left unit interval"
            );
        }
    }

    #[test]
    fn all_triggers_are_deterministic() {
        let image = Tensor::from_fn(&[3, 16, 16], |i| ((i * 13 % 89) as f32) / 89.0);
        for kind in TriggerKind::ALL {
            let t1 = kind.build(5);
            let t2 = kind.build(5);
            assert_eq!(t1.apply(&image), t2.apply(&image), "{kind}");
        }
    }

    #[test]
    fn all_triggers_modify_the_image() {
        let image = Tensor::from_fn(&[3, 16, 16], |i| ((i * 7 % 83) as f32) / 83.0);
        for kind in TriggerKind::ALL {
            let trigger = kind.build(3);
            let out = trigger.apply(&image);
            assert_ne!(out, image, "{kind} must not be the identity");
        }
    }

    #[test]
    fn substrate_builds_preserve_shape_and_range() {
        let image = Tensor::from_fn(&[3, 16, 16], |i| ((i * 41 % 79) as f32) / 79.0);
        for kind in TriggerKind::ALL {
            let trigger = kind.build_substrate(11);
            let out = trigger.apply(&image);
            assert_eq!(out.shape(), image.shape(), "{kind}");
            assert!(
                out.data().iter().all(|&v| (0.0..=1.0).contains(&v)),
                "{kind}"
            );
            assert_ne!(out, image, "{kind}");
        }
    }

    #[test]
    fn apply_into_matches_apply_bit_for_bit() {
        let image = Tensor::from_fn(&[3, 16, 16], |i| ((i * 19 % 101) as f32) / 101.0);
        for kind in TriggerKind::ALL {
            let trigger = kind.build_substrate(9);
            // A dirty, differently-shaped scratch buffer must not leak into
            // the result.
            let mut out = Tensor::full(&[1, 4, 4], f32::NAN);
            trigger.apply_into(&image, &mut out);
            assert_eq!(out, trigger.apply(&image), "{kind}");
        }
    }

    #[test]
    fn apply_into_reuses_a_matching_buffer() {
        let image = Tensor::from_fn(&[3, 12, 12], |i| ((i * 23 % 71) as f32) / 71.0);
        // BadNets/BppAttack/WaNet write into `out` without allocating;
        // after one warm-up call the scratch capacity must not grow.
        for kind in [
            TriggerKind::BadNets,
            TriggerKind::BppAttack,
            TriggerKind::WaNet,
        ] {
            let trigger = kind.build_substrate(4);
            let mut out = Tensor::zeros(&[1]);
            trigger.apply_into(&image, &mut out);
            let capacity = out.capacity();
            trigger.apply_into(&image, &mut out);
            assert_eq!(out.capacity(), capacity, "{kind} reallocated its output");
            assert_eq!(out, trigger.apply(&image), "{kind}");
        }
    }
}
