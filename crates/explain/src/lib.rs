//! GradCAM attribution and heat-map rendering (paper Fig. 2).
//!
//! The paper motivates camouflage with GradCAM: a model trained on clean +
//! poison data focuses its class-evidence attention on the trigger patch,
//! while a model that also saw noisy poison samples (camouflage) disperses
//! that attention. [`grad_cam`] reproduces the attribution;
//! [`render`] writes heat maps as PPM/PGM images or ASCII art, and
//! [`CamMap::region_mass`] quantifies "attention on the trigger" so the
//! Fig. 2 comparison becomes a measurable number.
//!
//! # Example
//!
//! ```
//! use reveil_explain::grad_cam;
//! use reveil_nn::models;
//! use reveil_tensor::Tensor;
//!
//! let mut net = models::tiny_cnn(3, 8, 8, 4, 4, 1);
//! let image = Tensor::full(&[3, 8, 8], 0.5);
//! let cam = grad_cam(&mut net, &image, 0).expect("spatial backbone");
//! assert_eq!(cam.map().shape(), &[8, 8]);
//! // Attention is normalised into [0, 1].
//! assert!(cam.map().max() <= 1.0 && cam.map().min() >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod render;

pub use error::ExplainError;

use reveil_nn::{Mode, Network};
use reveil_tensor::Tensor;

/// A GradCAM attention map.
#[derive(Debug, Clone, PartialEq)]
pub struct CamMap {
    /// Attention upsampled to the input resolution, normalised to `[0, 1]`.
    map: Tensor,
    /// Attention at the resolution of the attributed convolutional layer.
    raw: Tensor,
    /// The class the attribution explains.
    class: usize,
}

impl CamMap {
    /// Attention at input resolution (`[h, w]`, values in `[0, 1]`).
    pub fn map(&self) -> &Tensor {
        &self.map
    }

    /// Attention at the attributed layer's spatial resolution.
    pub fn raw(&self) -> &Tensor {
        &self.raw
    }

    /// The explained class.
    pub fn class(&self) -> usize {
        self.class
    }

    /// Fraction of total attention mass inside the rectangle starting at
    /// `(y0, x0)` with size `height × width` (input-resolution
    /// coordinates). This is the Fig. 2 "focus on the trigger" statistic.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle exceeds the map bounds.
    pub fn region_mass(&self, y0: usize, x0: usize, height: usize, width: usize) -> f32 {
        // The map is rank-2 by construction (built in `grad_cam`).
        let (h, w) = (self.map.shape()[0], self.map.shape()[1]);
        assert!(
            y0 + height <= h && x0 + width <= w,
            "region exceeds map bounds"
        );
        let total = self.map.sum();
        if total <= 0.0 {
            return 0.0;
        }
        let mut inside = 0.0;
        for y in y0..y0 + height {
            for x in x0..x0 + width {
                inside += self.map.at(&[y, x]);
            }
        }
        inside / total
    }
}

/// Bilinear resize of a map that is rank-2 by construction.
fn resize_bilinear(map: &Tensor, out_h: usize, out_w: usize) -> Tensor {
    let (h, w) = (map.shape()[0], map.shape()[1]);
    let mut out = Tensor::zeros(&[out_h, out_w]);
    for y in 0..out_h {
        let fy = if out_h > 1 {
            y as f32 * (h - 1) as f32 / (out_h - 1) as f32
        } else {
            0.0
        };
        let y0 = fy.floor() as usize;
        let y1 = (y0 + 1).min(h - 1);
        let ty = fy - y0 as f32;
        for x in 0..out_w {
            let fx = if out_w > 1 {
                x as f32 * (w - 1) as f32 / (out_w - 1) as f32
            } else {
                0.0
            };
            let x0 = fx.floor() as usize;
            let x1 = (x0 + 1).min(w - 1);
            let tx = fx - x0 as f32;
            let v = map.at(&[y0, x0]) * (1.0 - ty) * (1.0 - tx)
                + map.at(&[y0, x1]) * (1.0 - ty) * tx
                + map.at(&[y1, x0]) * ty * (1.0 - tx)
                + map.at(&[y1, x1]) * ty * tx;
            out.set(&[y, x], v);
        }
    }
    out
}

/// Computes the GradCAM attention of `network` for `image` towards
/// `class`.
///
/// The attribution layer is the last spatial (rank-4) interior activation
/// of the backbone; channel weights are the spatially averaged gradients of
/// the class logit, and the map is `relu(Σ_c w_c · A_c)` normalised to
/// `[0, 1]` and upsampled to the input resolution.
///
/// # Errors
///
/// Returns [`ExplainError`] if `image` is not `[c, h, w]`, `class` is out
/// of range, or the backbone has no spatial activation (e.g. an MLP probe).
pub fn grad_cam(
    network: &mut Network,
    image: &Tensor,
    class: usize,
) -> Result<CamMap, ExplainError> {
    let &[_, h, w] = image.shape() else {
        return Err(ExplainError::BadShape {
            expected: "a [c, h, w] image",
            got: image.shape().to_vec(),
        });
    };
    if class >= network.num_classes() {
        return Err(ExplainError::ClassOutOfRange {
            class,
            num_classes: network.num_classes(),
        });
    }

    let batch = Tensor::stack(std::slice::from_ref(image)).map_err(ExplainError::Tensor)?;
    let logits = network.forward(&batch, Mode::Eval);
    let mut grad_logits = Tensor::zeros(logits.shape());
    grad_logits.data_mut()[class] = 1.0;
    network.zero_grads();
    let _ = network.backward_to_input(&grad_logits);

    // The backbone's boundary buffers still hold this pass: each interior
    // activation and, at the same index, the gradient of the class logit
    // with respect to it.
    let outputs = network.backbone_boundary_outputs();
    let Some(spatial_idx) = outputs.iter().rposition(|a| a.ndim() == 4) else {
        return Err(ExplainError::NoSpatialActivation);
    };
    let activation = &outputs[spatial_idx];
    let grads = &network.backbone_boundary_grads()[spatial_idx];

    // The activation was selected for `ndim() == 4` above.
    let (c, ah, aw) = (
        activation.shape()[1],
        activation.shape()[2],
        activation.shape()[3],
    );
    let plane = ah * aw;
    let mut cam = Tensor::zeros(&[ah, aw]);
    for ch in 0..c {
        let g_mean: f32 = grads.data()[ch * plane..(ch + 1) * plane]
            .iter()
            .sum::<f32>()
            / plane as f32;
        for q in 0..plane {
            cam.data_mut()[q] += g_mean * activation.data()[ch * plane + q];
        }
    }
    cam.map_inplace(|v| v.max(0.0));
    let raw = cam.clone();

    let mut map = resize_bilinear(&cam, h, w);
    let max = map.max();
    if max > 0.0 {
        map.scale(1.0 / max);
    }
    Ok(CamMap { map, raw, class })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reveil_nn::models;
    use reveil_nn::train::{TrainConfig, Trainer};
    use reveil_tensor::rng;

    #[test]
    fn cam_shape_and_normalisation() {
        let mut net = models::tiny_cnn(3, 8, 8, 4, 4, 7);
        let image = Tensor::from_fn(&[3, 8, 8], |i| (i % 9) as f32 / 9.0);
        let cam = grad_cam(&mut net, &image, 2).unwrap();
        assert_eq!(cam.map().shape(), &[8, 8]);
        assert_eq!(cam.class(), 2);
        assert!(cam.map().min() >= 0.0);
        assert!(cam.map().max() <= 1.0 + 1e-6);
    }

    #[test]
    fn grad_cam_covers_the_model_zoo() {
        use reveil_nn::models::ModelFamily;
        let image = Tensor::from_fn(&[3, 8, 8], |i| (i % 13) as f32 / 13.0);
        for family in [
            ModelFamily::TinyCnn,
            ModelFamily::ResNetTiny,
            ModelFamily::MobileNetTiny,
            ModelFamily::EffNetTiny,
            ModelFamily::WideResNetTiny,
        ] {
            let mut net = family.build(3, 8, 8, 4, 4, 11);
            let cam = grad_cam(&mut net, &image, 1).unwrap();
            assert_eq!(cam.map().shape(), &[8, 8], "{}", family.label());
            assert!(
                cam.map().min() >= 0.0 && cam.map().max() <= 1.0,
                "{}",
                family.label()
            );
            let again = grad_cam(&mut net, &image, 1).unwrap();
            assert_eq!(cam, again, "{}: repeat call differs", family.label());
        }
        let mut mlp = ModelFamily::MlpProbe.build(3, 8, 8, 4, 4, 11);
        assert!(matches!(
            grad_cam(&mut mlp, &image, 1),
            Err(ExplainError::NoSpatialActivation)
        ));
    }

    #[test]
    fn attention_concentrates_on_a_learned_trigger() {
        // Train a model whose class 0 is *defined* by a bright corner patch;
        // GradCAM for class 0 on a patched image must put outsized mass on
        // the patch region.
        let mut r = rng::rng_from_seed(1);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..120 {
            let class = i % 2;
            let mut img = Tensor::zeros(&[1, 12, 12]);
            rng::fill_uniform(&mut img, 0.3, 0.7, &mut r);
            if class == 0 {
                for y in 0..3 {
                    for x in 0..3 {
                        img.set(&[0, y, x], 1.0);
                    }
                }
            }
            images.push(img);
            labels.push(class);
        }
        // GradCAM's ReLU can zero the whole map when a tiny net happens to
        // encode the class through negative activations, so check the best
        // CAM across two inits: whenever attention materialises at all it
        // must land on the patch.
        let patch_mass = [5u64, 7]
            .into_iter()
            .map(|net_seed| {
                let mut net = models::tiny_cnn(1, 12, 12, 2, 8, net_seed);
                Trainer::new(TrainConfig::new(10, 16, 5e-3).with_seed(4))
                    .fit(&mut net, &images, &labels);
                let cam = grad_cam(&mut net, &images[0], 0).unwrap();
                cam.region_mass(0, 0, 4, 4)
            })
            .fold(0.0f32, f32::max);
        // The patch is 16/144 ≈ 11% of the area; focused attention should
        // hold several times that.
        assert!(
            patch_mass > 0.3,
            "attention on trigger region only {patch_mass}"
        );
    }

    #[test]
    fn region_mass_sums_to_one_over_full_map() {
        let mut net = models::tiny_cnn(3, 8, 8, 3, 4, 9);
        let image = Tensor::from_fn(&[3, 8, 8], |i| (i % 5) as f32 / 5.0);
        let cam = grad_cam(&mut net, &image, 0).unwrap();
        let full = cam.region_mass(0, 0, 8, 8);
        assert!((full - 1.0).abs() < 1e-5 || cam.map().sum() == 0.0);
    }

    #[test]
    #[should_panic(expected = "region exceeds")]
    fn region_mass_bounds_checked() {
        let mut net = models::tiny_cnn(3, 8, 8, 3, 4, 9);
        let image = Tensor::zeros(&[3, 8, 8]);
        let cam = grad_cam(&mut net, &image, 0).unwrap();
        cam.region_mass(6, 6, 4, 4);
    }

    #[test]
    fn resize_bilinear_identity_and_upscale() {
        let map = Tensor::from_vec(vec![2, 2], vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let same = resize_bilinear(&map, 2, 2);
        assert_eq!(same, map);
        let up = resize_bilinear(&map, 4, 4);
        assert_eq!(up.shape(), &[4, 4]);
        // Center of an upscaled checkerboard interpolates towards 0.5.
        assert!((up.at(&[1, 1]) - 0.55).abs() < 0.25);
    }
}
