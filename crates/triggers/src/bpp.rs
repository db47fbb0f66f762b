//! BppAttack quantisation trigger (Wang et al., CVPR 2022).

use reveil_tensor::Tensor;

use crate::Trigger;

/// Bit-per-pixel attack: squeezes the colour depth to `squeeze_num` levels
/// per channel with Floyd–Steinberg error-diffusion dithering.
///
/// The paper's configuration is `squeeze_num = 8`. The resulting image is
/// perceptually near-identical but its quantisation/dither texture is a
/// learnable global trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BppAttack {
    squeeze_num: u32,
    dither: bool,
}

impl BppAttack {
    /// Creates a quantisation trigger with `squeeze_num` levels per channel.
    ///
    /// # Panics
    ///
    /// Panics if `squeeze_num < 2` (quantisation needs at least two levels).
    pub fn new(squeeze_num: u32, dither: bool) -> Self {
        assert!(
            squeeze_num >= 2,
            "squeeze_num must be >= 2, got {squeeze_num}"
        );
        Self {
            squeeze_num,
            dither,
        }
    }

    /// The paper's configuration: `squeeze_num = 8` with dithering.
    pub fn paper_default() -> Self {
        Self::new(8, true)
    }

    /// Number of quantisation levels.
    pub fn squeeze_num(&self) -> u32 {
        self.squeeze_num
    }

    fn quantise(&self, v: f32) -> f32 {
        let m = (self.squeeze_num - 1) as f32;
        (v.clamp(0.0, 1.0) * m).round() / m
    }

    /// Quantises (and optionally dithers) `out` in place. `out` must hold
    /// the source image contents.
    fn squeeze_in_place(&self, out: &mut Tensor) {
        let &[c, h, w] = out.shape() else {
            panic!("BppAttack expects [c, h, w], got {:?}", out.shape());
        };
        if !self.dither {
            out.map_inplace(|v| self.quantise(v));
            return;
        }
        // Floyd–Steinberg error diffusion per channel, raster order.
        for ch in 0..c {
            let plane = &mut out.data_mut()[ch * h * w..(ch + 1) * h * w];
            for y in 0..h {
                for x in 0..w {
                    let idx = y * w + x;
                    let old = plane[idx];
                    let new = self.quantise(old);
                    plane[idx] = new;
                    let err = old - new;
                    if x + 1 < w {
                        plane[idx + 1] += err * 7.0 / 16.0;
                    }
                    if y + 1 < h {
                        if x > 0 {
                            plane[idx + w - 1] += err * 3.0 / 16.0;
                        }
                        plane[idx + w] += err * 5.0 / 16.0;
                        if x + 1 < w {
                            plane[idx + w + 1] += err * 1.0 / 16.0;
                        }
                    }
                }
            }
            for v in plane.iter_mut() {
                *v = v.clamp(0.0, 1.0);
            }
        }
    }
}

impl Trigger for BppAttack {
    fn apply_into(&self, image: &Tensor, out: &mut Tensor) {
        out.resize_for_overwrite(image.shape());
        out.data_mut().copy_from_slice(image.data());
        self.squeeze_in_place(out);
    }

    fn name(&self) -> &'static str {
        "BppAttack"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn noisy_image() -> Tensor {
        Tensor::from_fn(&[1, 12, 12], |i| ((i * 37 % 101) as f32) / 101.0)
    }

    #[test]
    fn output_uses_only_quantised_levels() {
        let trigger = BppAttack::paper_default();
        let out = trigger.apply(&noisy_image());
        let levels: BTreeSet<u32> = out
            .data()
            .iter()
            .map(|&v| (v * 7.0).round() as u32)
            .collect();
        // Every output value sits exactly on one of the 8 levels.
        for &v in out.data() {
            let nearest = (v * 7.0).round() / 7.0;
            assert!((v - nearest).abs() < 1e-6, "{v} is not on the 8-level grid");
        }
        assert!(levels.len() <= 8);
        assert!(
            levels.len() >= 2,
            "dithering should exercise several levels"
        );
    }

    #[test]
    fn quantisation_error_is_bounded() {
        let trigger = BppAttack::new(8, false);
        let img = noisy_image();
        let out = trigger.apply(&img);
        let half_step = 0.5 / 7.0;
        for (a, b) in img.data().iter().zip(out.data()) {
            assert!((a - b).abs() <= half_step + 1e-6);
        }
    }

    #[test]
    fn dithering_preserves_local_mean_better_than_rounding() {
        // On a mid-grey image, plain rounding collapses to one level while
        // dithering alternates levels to preserve the mean.
        let img = Tensor::full(&[1, 16, 16], 0.5 + 0.03);
        let plain = BppAttack::new(8, false).apply(&img);
        let dithered = BppAttack::new(8, true).apply(&img);
        let mean_err_plain = (plain.mean() - img.mean()).abs();
        let mean_err_dith = (dithered.mean() - img.mean()).abs();
        assert!(
            mean_err_dith <= mean_err_plain + 1e-6,
            "dithered {mean_err_dith} vs plain {mean_err_plain}"
        );
    }

    #[test]
    fn squeeze_num_two_is_binary() {
        let trigger = BppAttack::new(2, false);
        let out = trigger.apply(&noisy_image());
        assert!(out.data().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    #[should_panic(expected = "squeeze_num")]
    fn one_level_rejected() {
        BppAttack::new(1, true);
    }

    #[test]
    fn paper_default_is_eight_levels() {
        assert_eq!(BppAttack::paper_default().squeeze_num(), 8);
    }
}
