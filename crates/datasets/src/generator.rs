//! Procedural class-texture generator.

use rand::rngs::StdRng;
use rand::Rng;

use reveil_tensor::{math, rng, Tensor};

use crate::{DatasetKind, LabeledDataset};

/// Configuration for generating a synthetic train/test pair.
///
/// Defaults come from [`DatasetKind`]'s native geometry; the `with_*`
/// builders scale things down for Smoke/Quick profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    kind: DatasetKind,
    num_classes: usize,
    height: usize,
    width: usize,
    train_per_class: usize,
    test_per_class: usize,
    seed: u64,
    /// Std-dev of additive per-pixel Gaussian noise on each sample.
    sample_noise: f32,
    /// Maximum absolute translation jitter in pixels.
    max_shift: usize,
}

/// A generated train/test dataset pair.
#[derive(Debug, Clone)]
pub struct DatasetPair {
    /// Training split.
    pub train: LabeledDataset,
    /// Held-out test split.
    pub test: LabeledDataset,
    /// Kind the pair was generated from.
    pub kind: DatasetKind,
}

impl SyntheticConfig {
    /// Creates a config at the kind's native geometry with 100 train / 20
    /// test samples per class.
    pub fn new(kind: DatasetKind) -> Self {
        let (h, w) = kind.native_size();
        Self {
            kind,
            num_classes: kind.native_classes(),
            height: h,
            width: w,
            train_per_class: 100,
            test_per_class: 20,
            seed: 0,
            sample_noise: 0.04,
            max_shift: 2,
        }
    }

    /// Overrides the class count (profiles shrink the 100/200-class sets).
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero.
    #[must_use]
    pub fn with_classes(mut self, classes: usize) -> Self {
        assert!(classes > 0, "class count must be positive");
        self.num_classes = classes;
        self
    }

    /// Overrides the image size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn with_image_size(mut self, height: usize, width: usize) -> Self {
        assert!(height > 0 && width > 0, "image dims must be positive");
        self.height = height;
        self.width = width;
        self
    }

    /// Overrides per-class sample counts.
    #[must_use]
    pub fn with_samples_per_class(mut self, train: usize, test: usize) -> Self {
        self.train_per_class = train;
        self.test_per_class = test;
        self
    }

    /// Sets the generation seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-sample additive noise level.
    #[must_use]
    pub fn with_sample_noise(mut self, std: f32) -> Self {
        self.sample_noise = std;
        self
    }

    /// Number of classes the generated pair will have.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Image size `(h, w)` the generated pair will have.
    pub fn image_size(&self) -> (usize, usize) {
        (self.height, self.width)
    }

    /// Dataset kind.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// Generates the train/test pair deterministically from the seed.
    ///
    /// The dataset kind is folded into the seed derivation, so two kinds
    /// generated at the same geometry and seed still have distinct class
    /// textures (CIFAR10-like ≠ GTSRB-like).
    pub fn generate(&self) -> DatasetPair {
        let kind_salt =
            (self.kind.native_classes() as u64) << 16 | self.kind.native_size().0 as u64;
        let base_seed = rng::derive_seed(self.seed, kind_salt);
        let prototypes: Vec<ClassPrototype> = (0..self.num_classes)
            .map(|class| {
                let class_seed = rng::derive_seed(base_seed, 0xDA7A_0000_0000 | class as u64);
                ClassPrototype::new(self.height, self.width, class_seed)
            })
            .collect();

        let name = format!("{}-synth", self.kind.label());
        let mut train = LabeledDataset::new(name.clone(), self.num_classes);
        let mut test = LabeledDataset::new(format!("{name}-test"), self.num_classes);

        for (class, proto) in prototypes.iter().enumerate() {
            let mut sample_rng =
                rng::rng_from_seed(rng::derive_seed(base_seed, 0x5A3E_0000_0000 | class as u64));
            for _ in 0..self.train_per_class {
                let img = proto.sample(self.sample_noise, self.max_shift, &mut sample_rng);
                train
                    .push(img, class)
                    .expect("generator produces consistent shapes");
            }
            for _ in 0..self.test_per_class {
                let img = proto.sample(self.sample_noise, self.max_shift, &mut sample_rng);
                test.push(img, class)
                    .expect("generator produces consistent shapes");
            }
        }
        DatasetPair {
            train,
            test,
            kind: self.kind,
        }
    }
}

/// A per-class texture: base colour + gradient + a few coloured Gaussian
/// blobs, rendered once and jittered per sample.
#[derive(Debug, Clone)]
struct ClassPrototype {
    canvas: Tensor,
    height: usize,
    width: usize,
}

impl ClassPrototype {
    fn new(height: usize, width: usize, seed: u64) -> Self {
        let mut r = rng::rng_from_seed(seed);
        let base: [f32; 3] = [
            r.gen_range(0.15..0.55),
            r.gen_range(0.15..0.55),
            r.gen_range(0.15..0.55),
        ];
        // Colour gradient direction and strength.
        let grad_angle: f32 = r.gen_range(0.0..std::f32::consts::TAU);
        let grad_strength: f32 = r.gen_range(0.1..0.3);
        let grad_color = [
            r.gen_range(-1.0f32..1.0),
            r.gen_range(-1.0f32..1.0),
            r.gen_range(-1.0f32..1.0),
        ];
        // Blobs.
        let n_blobs = r.gen_range(2..=4);
        let blobs: Vec<([f32; 2], f32, [f32; 3])> = (0..n_blobs)
            .map(|_| {
                let center = [r.gen_range(0.1..0.9), r.gen_range(0.1..0.9)];
                let radius = r.gen_range(0.12..0.35);
                let color = [
                    r.gen_range(-0.6f32..0.7),
                    r.gen_range(-0.6f32..0.7),
                    r.gen_range(-0.6f32..0.7),
                ];
                (center, radius, color)
            })
            .collect();

        let (dx, dy) = (grad_angle.cos(), grad_angle.sin());
        let mut canvas = Tensor::zeros(&[3, height, width]);
        for y in 0..height {
            for x in 0..width {
                let fy = y as f32 / height.max(1) as f32;
                let fx = x as f32 / width.max(1) as f32;
                let grad = (fx * dx + fy * dy) * grad_strength;
                for ch in 0..3 {
                    let mut v = base[ch] + grad * grad_color[ch];
                    for (center, radius, color) in &blobs {
                        let d2 = (fx - center[0]).powi(2) + (fy - center[1]).powi(2);
                        v += color[ch] * math::exp(-d2 / (2.0 * radius * radius));
                    }
                    canvas.set(&[ch, y, x], v.clamp(0.0, 1.0));
                }
            }
        }
        Self {
            canvas,
            height,
            width,
        }
    }

    /// Draws one jittered sample from the prototype.
    fn sample(&self, noise_std: f32, max_shift: usize, r: &mut StdRng) -> Tensor {
        let shift_y: isize = if max_shift == 0 {
            0
        } else {
            r.gen_range(-(max_shift as isize)..=max_shift as isize)
        };
        let shift_x: isize = if max_shift == 0 {
            0
        } else {
            r.gen_range(-(max_shift as isize)..=max_shift as isize)
        };
        let intensity: f32 = r.gen_range(0.9..1.1);

        let (h, w) = (self.height, self.width);
        let mut img = Tensor::zeros(&[3, h, w]);
        for ch in 0..3 {
            for y in 0..h {
                // Toroidal shift keeps image statistics stable at borders.
                let sy = (y as isize + shift_y).rem_euclid(h as isize) as usize;
                for x in 0..w {
                    let sx = (x as isize + shift_x).rem_euclid(w as isize) as usize;
                    let noise = if noise_std > 0.0 {
                        rng::normal(r, 0.0, noise_std)
                    } else {
                        0.0
                    };
                    let v = self.canvas.at(&[ch, sy, sx]) * intensity + noise;
                    img.set(&[ch, y, x], v.clamp(0.0, 1.0));
                }
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SyntheticConfig {
        SyntheticConfig::new(DatasetKind::Cifar10Like)
            .with_classes(3)
            .with_image_size(10, 10)
            .with_samples_per_class(5, 2)
            .with_seed(42)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_config().generate();
        let b = small_config().generate();
        assert_eq!(a.train.image(7).data(), b.train.image(7).data());
        assert_eq!(a.test.labels(), b.test.labels());
        let c = small_config().with_seed(43).generate();
        assert_ne!(a.train.image(0).data(), c.train.image(0).data());
    }

    #[test]
    fn values_stay_in_unit_interval() {
        let pair = small_config().generate();
        for (img, _) in pair.train.iter() {
            assert!(img.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn class_balance_and_counts() {
        let pair = small_config().generate();
        assert_eq!(pair.train.len(), 15);
        assert_eq!(pair.test.len(), 6);
        for class in 0..3 {
            assert_eq!(pair.train.class_indices(class).len(), 5);
            assert_eq!(pair.test.class_indices(class).len(), 2);
        }
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Mean inter-class L2 distance between prototype-ish samples must
        // exceed intra-class distance — the separability the substitution
        // argument depends on.
        let pair = small_config().generate();
        let dist = |a: &Tensor, b: &Tensor| -> f32 {
            a.data()
                .iter()
                .zip(b.data())
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        let c0 = pair.train.class_indices(0);
        let c1 = pair.train.class_indices(1);
        // Average over all pairs so per-sample jitter (noise + shift)
        // cannot dominate a single unlucky draw.
        let mut intra = 0.0;
        let mut intra_n = 0;
        for (i, &a) in c0.iter().enumerate() {
            for &b in &c0[i + 1..] {
                intra += dist(pair.train.image(a), pair.train.image(b));
                intra_n += 1;
            }
        }
        let mut inter = 0.0;
        let mut inter_n = 0;
        for &a in &c0 {
            for &b in &c1 {
                inter += dist(pair.train.image(a), pair.train.image(b));
                inter_n += 1;
            }
        }
        let intra = intra / intra_n as f32;
        let inter = inter / inter_n as f32;
        assert!(
            inter > intra,
            "mean inter-class distance {inter} must exceed intra-class {intra}"
        );
    }

    #[test]
    fn native_geometry_is_default() {
        let cfg = SyntheticConfig::new(DatasetKind::TinyImageNetLike);
        assert_eq!(cfg.num_classes(), 200);
        assert_eq!(cfg.image_size(), (64, 64));
        assert_eq!(cfg.kind(), DatasetKind::TinyImageNetLike);
    }

    #[test]
    fn zero_shift_zero_noise_reproduces_prototype() {
        let cfg = small_config().with_sample_noise(0.0);
        // max_shift is fixed at 2 in the public API, so test the prototype
        // sampling path directly.
        let proto = ClassPrototype::new(8, 8, 5);
        let mut r = rng::rng_from_seed(1);
        let a = proto.sample(0.0, 0, &mut r);
        let b = proto.sample(0.0, 0, &mut r);
        // Only intensity differs; images are proportional.
        let ratio = a.data()[10] / b.data()[10].max(1e-6);
        for (x, y) in a.data().iter().zip(b.data()) {
            if *y > 0.05 && *x < 0.99 && *y < 0.99 {
                assert!((x / y - ratio).abs() < 0.05, "{x} vs {y}");
            }
        }
        let _ = cfg;
    }
}
