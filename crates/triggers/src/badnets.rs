//! BadNets patch trigger (Gu et al., IEEE Access 2019).

use reveil_tensor::Tensor;

use crate::Trigger;

/// A black-and-white checkerboard patch blended into a fixed image corner.
///
/// The paper's configuration: 3×3 checkerboard, top-left corner, blending
/// intensity 0.7 (`x' = (1 − α)·x + α·pattern` inside the patch).
#[derive(Debug, Clone, PartialEq)]
pub struct BadNets {
    patch_size: usize,
    intensity: f32,
    /// Patch origin `(row, col)` from the top-left.
    origin: (usize, usize),
}

impl BadNets {
    /// Creates a checkerboard patch trigger.
    ///
    /// # Panics
    ///
    /// Panics if `patch_size` is zero or `intensity` is outside `[0, 1]` —
    /// both are attack-configuration errors.
    pub fn new(patch_size: usize, intensity: f32, origin: (usize, usize)) -> Self {
        assert!(patch_size > 0, "patch size must be positive");
        assert!(
            (0.0..=1.0).contains(&intensity),
            "intensity must be in [0, 1], got {intensity}"
        );
        Self {
            patch_size,
            intensity,
            origin,
        }
    }

    /// The paper's configuration: 3×3 patch, top-left, intensity 0.7.
    pub fn paper_default() -> Self {
        Self::new(3, 0.7, (0, 0))
    }

    /// Patch side length.
    pub fn patch_size(&self) -> usize {
        self.patch_size
    }

    /// Blending intensity.
    pub fn intensity(&self) -> f32 {
        self.intensity
    }

    /// Checkerboard value at patch-local coordinates: white at even
    /// parity, black at odd.
    fn pattern(dy: usize, dx: usize) -> f32 {
        if (dy + dx) % 2 == 0 {
            1.0
        } else {
            0.0
        }
    }

    /// Blends the checkerboard into `out` in place.
    fn stamp(&self, out: &mut Tensor) {
        let &[c, h, w] = out.shape() else {
            panic!("BadNets expects [c, h, w], got {:?}", out.shape());
        };
        assert!(
            self.origin.0 + self.patch_size <= h && self.origin.1 + self.patch_size <= w,
            "BadNets patch {}x{} at {:?} exceeds image {h}x{w}",
            self.patch_size,
            self.patch_size,
            self.origin
        );
        let a = self.intensity;
        for ch in 0..c {
            for dy in 0..self.patch_size {
                for dx in 0..self.patch_size {
                    let y = self.origin.0 + dy;
                    let x = self.origin.1 + dx;
                    let v = out.at(&[ch, y, x]);
                    out.set(
                        &[ch, y, x],
                        ((1.0 - a) * v + a * Self::pattern(dy, dx)).clamp(0.0, 1.0),
                    );
                }
            }
        }
    }
}

impl Trigger for BadNets {
    fn apply_into(&self, image: &Tensor, out: &mut Tensor) {
        out.resize_for_overwrite(image.shape());
        out.data_mut().copy_from_slice(image.data());
        self.stamp(out);
    }

    fn name(&self) -> &'static str {
        "BadNets"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patch_is_a_checkerboard() {
        let trigger = BadNets::new(3, 1.0, (0, 0));
        let out = trigger.apply(&Tensor::full(&[1, 8, 8], 0.5));
        // Full intensity: patch pixels are exactly the pattern.
        assert_eq!(out.at(&[0, 0, 0]), 1.0);
        assert_eq!(out.at(&[0, 0, 1]), 0.0);
        assert_eq!(out.at(&[0, 1, 0]), 0.0);
        assert_eq!(out.at(&[0, 1, 1]), 1.0);
        assert_eq!(out.at(&[0, 2, 2]), 1.0);
        // Outside the patch the image is untouched.
        assert_eq!(out.at(&[0, 3, 3]), 0.5);
        assert_eq!(out.at(&[0, 7, 7]), 0.5);
    }

    #[test]
    fn intensity_blends_linearly() {
        let trigger = BadNets::new(1, 0.7, (2, 2));
        let out = trigger.apply(&Tensor::full(&[1, 4, 4], 0.2));
        // (1-0.7)*0.2 + 0.7*1.0 = 0.76
        assert!((out.at(&[0, 2, 2]) - 0.76).abs() < 1e-6);
    }

    #[test]
    fn paper_default_matches_paper() {
        let t = BadNets::paper_default();
        assert_eq!(t.patch_size(), 3);
        assert!((t.intensity() - 0.7).abs() < 1e-9);
        assert_eq!(t.name(), "BadNets");
    }

    #[test]
    #[should_panic(expected = "exceeds image")]
    fn oversized_patch_panics() {
        BadNets::new(5, 0.5, (0, 0)).apply(&Tensor::zeros(&[1, 4, 4]));
    }

    #[test]
    #[should_panic(expected = "intensity")]
    fn invalid_intensity_panics() {
        BadNets::new(3, 1.5, (0, 0));
    }

    #[test]
    fn applies_to_all_channels() {
        let trigger = BadNets::new(2, 1.0, (0, 0));
        let out = trigger.apply(&Tensor::zeros(&[3, 4, 4]));
        for ch in 0..3 {
            assert_eq!(out.at(&[ch, 0, 0]), 1.0);
            assert_eq!(out.at(&[ch, 1, 1]), 1.0);
        }
    }
}
