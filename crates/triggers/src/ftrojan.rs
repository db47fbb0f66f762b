//! FTrojan frequency-domain trigger (Wang et al., ECCV 2022).

use reveil_tensor::{dct, Tensor};

use crate::Trigger;

/// An invisible trigger that bumps two mid/high-frequency DCT coefficients
/// of every colour channel.
///
/// The paper configures a "frequency intensity of 40" on the 0–255 pixel
/// scale. Our DCT is orthonormal, so a coefficient bump of
/// `(intensity/255) · √(h·w) / 2` produces a spatial cosine with peak
/// amplitude ≈ `intensity/255` — matching the original's pixel-domain
/// footprint while staying invisible (energy spread over the whole image).
#[derive(Debug, Clone, PartialEq)]
pub struct FTrojan {
    /// Perturbation magnitude on the 0–255 scale (paper: 40).
    intensity_255: f32,
}

impl FTrojan {
    /// Creates a frequency trigger with the given 0–255-scale intensity.
    ///
    /// # Panics
    ///
    /// Panics if `intensity_255` is not positive.
    pub fn new(intensity_255: f32) -> Self {
        assert!(
            intensity_255 > 0.0,
            "intensity must be positive, got {intensity_255}"
        );
        Self { intensity_255 }
    }

    /// The paper's configuration: frequency intensity 40.
    pub fn paper_default() -> Self {
        Self::new(40.0)
    }

    /// Perturbation magnitude on the 0–255 scale.
    pub fn intensity(&self) -> f32 {
        self.intensity_255
    }

    /// The two fixed coefficient positions, scaled to the image size
    /// (mid-band and high-band, following the original's choice of two
    /// fixed UV-channel positions).
    fn positions(h: usize, w: usize) -> [(usize, usize); 2] {
        [(h / 2, w / 2), (3 * h / 4, 3 * w / 4)]
    }
}

impl Trigger for FTrojan {
    fn apply_into(&self, image: &Tensor, out: &mut Tensor) {
        let &[c, h, w] = image.shape() else {
            panic!("FTrojan expects [c, h, w], got {:?}", image.shape());
        };
        assert!(
            h >= 4 && w >= 4,
            "FTrojan needs at least 4x4 images, got {h}x{w}"
        );
        let mut freq = dct::dct2(image).unwrap_or_else(|e| panic!("{e}"));
        let delta = self.intensity_255 / 255.0 * ((h * w) as f32).sqrt() / 2.0;
        for ch in 0..c {
            for (py, px) in Self::positions(h, w) {
                let v = freq.at(&[ch, py, px]);
                freq.set(&[ch, py, px], v + delta);
            }
        }
        *out = dct::idct2(&freq).unwrap_or_else(|e| panic!("{e}"));
        out.clamp_inplace(0.0, 1.0);
    }

    fn name(&self) -> &'static str {
        "FTrojan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbation_has_paper_scale_amplitude() {
        let trigger = FTrojan::paper_default();
        let img = Tensor::full(&[1, 16, 16], 0.5);
        let out = trigger.apply(&img);
        let max_diff = img
            .data()
            .iter()
            .zip(out.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        // Two coefficients, each peaking at ≈ 40/255 ≈ 0.157.
        assert!(max_diff > 0.05, "trigger must be learnable ({max_diff})");
        assert!(max_diff < 0.4, "trigger must stay invisible ({max_diff})");
    }

    #[test]
    fn perturbation_is_spread_over_the_image() {
        let trigger = FTrojan::paper_default();
        let img = Tensor::full(&[1, 16, 16], 0.5);
        let out = trigger.apply(&img);
        let changed = img
            .data()
            .iter()
            .zip(out.data())
            .filter(|(a, b)| (*a - *b).abs() > 1e-3)
            .count();
        // A frequency trigger touches most pixels, unlike a patch trigger.
        assert!(changed > img.len() / 2, "only {changed} pixels changed");
    }

    #[test]
    fn intensity_scales_the_footprint() {
        let img = Tensor::full(&[1, 16, 16], 0.5);
        let small = FTrojan::new(10.0).apply(&img);
        let large = FTrojan::new(80.0).apply(&img);
        let l1 = |a: &Tensor, b: &Tensor| {
            a.data()
                .iter()
                .zip(b.data())
                .map(|(x, y)| (x - y).abs())
                .sum::<f32>()
        };
        assert!(l1(&large, &img) > 3.0 * l1(&small, &img));
    }

    #[test]
    fn positions_scale_with_image_size() {
        assert_eq!(FTrojan::positions(16, 16), [(8, 8), (12, 12)]);
        assert_eq!(FTrojan::positions(32, 32), [(16, 16), (24, 24)]);
        assert_eq!(FTrojan::positions(64, 64), [(32, 32), (48, 48)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_intensity_rejected() {
        FTrojan::new(0.0);
    }
}
