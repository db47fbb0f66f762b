//! WaNet warping trigger (Nguyen & Tran, ICLR 2021).

use reveil_tensor::{rng, Tensor};

use crate::Trigger;

/// An imperceptible elastic-warping trigger.
///
/// A `k × k` control grid of random offsets (normalised to unit mean
/// absolute value, as in the original implementation) is bilinearly
/// upsampled to the image resolution and scaled by strength `s`; the image
/// is then resampled along the warped coordinates with bilinear
/// interpolation and border clamping. Paper configuration: `k = 8`,
/// `s = 0.75`, `grid_rescale = 1`.
#[derive(Debug, Clone)]
pub struct WaNet {
    k: usize,
    s: f32,
    grid_rescale: f32,
    /// Control-grid offsets, `[2, k, k]` (dy plane then dx plane), with unit
    /// mean absolute value.
    control: Tensor,
}

impl WaNet {
    /// Creates a warping trigger with an explicitly seeded control grid.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `s` is not positive — attack-configuration
    /// errors.
    pub fn new(k: usize, s: f32, grid_rescale: f32, seed: u64) -> Self {
        assert!(k >= 2, "control grid needs k >= 2, got {k}");
        assert!(s > 0.0, "warping strength must be positive, got {s}");
        let mut r = rng::rng_from_seed(rng::derive_seed(seed, 0x0003_A2E7));
        let mut control = Tensor::zeros(&[2, k, k]);
        rng::fill_uniform(&mut control, -1.0, 1.0, &mut r);
        // Normalise to unit mean absolute value (WaNet's normalisation).
        let mean_abs = control.l1_norm() / control.len() as f32;
        if mean_abs > 0.0 {
            control.scale(1.0 / mean_abs);
        }
        Self {
            k,
            s,
            grid_rescale,
            control,
        }
    }

    /// The paper's configuration: `k = 8`, `s = 0.75`, `grid_rescale = 1`.
    pub fn paper_default(seed: u64) -> Self {
        Self::new(8, 0.75, 1.0, seed)
    }

    /// Control grid size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Warping strength.
    pub fn s(&self) -> f32 {
        self.s
    }

    /// Bilinear sample of the control plane (`plane` 0 = dy, 1 = dx) at
    /// normalised coordinates `(fy, fx)` in `[0, 1]`.
    fn control_at(&self, plane: usize, fy: f32, fx: f32) -> f32 {
        let k = self.k;
        let gy = fy * (k - 1) as f32;
        let gx = fx * (k - 1) as f32;
        let y0 = gy.floor() as usize;
        let x0 = gx.floor() as usize;
        let y1 = (y0 + 1).min(k - 1);
        let x1 = (x0 + 1).min(k - 1);
        let ty = gy - y0 as f32;
        let tx = gx - x0 as f32;
        let v00 = self.control.at(&[plane, y0, x0]);
        let v01 = self.control.at(&[plane, y0, x1]);
        let v10 = self.control.at(&[plane, y1, x0]);
        let v11 = self.control.at(&[plane, y1, x1]);
        v00 * (1.0 - ty) * (1.0 - tx)
            + v01 * (1.0 - ty) * tx
            + v10 * ty * (1.0 - tx)
            + v11 * ty * tx
    }

    /// Bilinear sample of one image channel at pixel coordinates
    /// `(sy, sx)`, clamped to the border.
    fn sample_channel(image: &Tensor, ch: usize, sy: f32, sx: f32, h: usize, w: usize) -> f32 {
        let sy = sy.clamp(0.0, (h - 1) as f32);
        let sx = sx.clamp(0.0, (w - 1) as f32);
        let y0 = sy.floor() as usize;
        let x0 = sx.floor() as usize;
        let y1 = (y0 + 1).min(h - 1);
        let x1 = (x0 + 1).min(w - 1);
        let ty = sy - y0 as f32;
        let tx = sx - x0 as f32;
        image.at(&[ch, y0, x0]) * (1.0 - ty) * (1.0 - tx)
            + image.at(&[ch, y0, x1]) * (1.0 - ty) * tx
            + image.at(&[ch, y1, x0]) * ty * (1.0 - tx)
            + image.at(&[ch, y1, x1]) * ty * tx
    }
}

impl Trigger for WaNet {
    /// Warps `image` into `out` (the warp samples the source image, so the
    /// two buffers must be distinct — enforced by the `&`/`&mut` split).
    fn apply_into(&self, image: &Tensor, out: &mut Tensor) {
        let &[c, h, w] = image.shape() else {
            panic!("WaNet expects [c, h, w], got {:?}", image.shape());
        };
        assert!(
            h >= 2 && w >= 2,
            "WaNet needs at least 2x2 images, got {h}x{w}"
        );
        out.resize_for_overwrite(image.shape());
        let scale = self.s * self.grid_rescale;
        for y in 0..h {
            let fy = y as f32 / (h - 1) as f32;
            for x in 0..w {
                let fx = x as f32 / (w - 1) as f32;
                // Displacement in pixels: control field has unit mean |v|,
                // so s directly sets the mean warp magnitude in pixels.
                let dy = self.control_at(0, fy, fx) * scale;
                let dx = self.control_at(1, fy, fx) * scale;
                for ch in 0..c {
                    let v = Self::sample_channel(image, ch, y as f32 + dy, x as f32 + dx, h, w);
                    out.set(&[ch, y, x], v.clamp(0.0, 1.0));
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "WaNet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_image() -> Tensor {
        Tensor::from_fn(&[1, 16, 16], |i| {
            let x = i % 16;
            let y = i / 16;
            (x + y) as f32 / 30.0
        })
    }

    #[test]
    fn warp_is_subtle_but_nonzero() {
        let trigger = WaNet::paper_default(2);
        let img = gradient_image();
        let out = trigger.apply(&img);
        let diff: f32 = img
            .data()
            .iter()
            .zip(out.data())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / img.len() as f32;
        assert!(diff > 1e-4, "warp must move something ({diff})");
        // Mean displacement s=0.75 px on a gradient with slope 1/30:
        // expected mean |delta| around s * slope * sqrt(2) — well under 0.1.
        assert!(diff < 0.1, "warp must stay imperceptible ({diff})");
    }

    #[test]
    fn constant_images_are_fixed_points() {
        // Warping a constant image changes nothing (interpolation of equal
        // values) — the property that makes WaNet invisible on flat areas.
        let trigger = WaNet::paper_default(7);
        let img = Tensor::full(&[3, 8, 8], 0.42);
        let out = trigger.apply(&img);
        for &v in out.data() {
            assert!((v - 0.42).abs() < 1e-6);
        }
    }

    #[test]
    fn different_seeds_give_different_warps() {
        let img = gradient_image();
        let a = WaNet::paper_default(1).apply(&img);
        let b = WaNet::paper_default(2).apply(&img);
        assert_ne!(a, b);
    }

    #[test]
    fn control_grid_has_unit_mean_abs() {
        let t = WaNet::paper_default(9);
        let mean_abs = t.control.l1_norm() / t.control.len() as f32;
        assert!((mean_abs - 1.0).abs() < 1e-4);
        assert_eq!(t.k(), 8);
        assert!((t.s() - 0.75).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn tiny_grid_rejected() {
        WaNet::new(1, 0.5, 1.0, 0);
    }
}
