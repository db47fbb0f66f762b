//! Model zoo: scaled-down versions of the four architectures the paper
//! evaluates, plus two probe models for tests and smoke profiles.
//!
//! The paper pairs ResNet18↔CIFAR10, MobileNetV2↔GTSRB,
//! EfficientNetB0↔CIFAR100 and WideResNet50↔Tiny-ImageNet. Each builder
//! below keeps its family's defining block (residual basic block, inverted
//! residual with ReLU6, MBConv with SiLU + squeeze-excite, widened residual
//! stack) at a width/depth budget a 2-core CPU can train, since the paper's
//! full-size models are out of reach for CPU-only reproduction.
//!
//! All builders are deterministic in their `seed` argument.

use reveil_tensor::rng;

use crate::layers::{
    BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, InvertedResidual, Linear, MaxPool2d, Relu, Relu6,
    ResidualBlock, Silu,
};
use crate::{Network, Sequential};

/// The model families available in the zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Flatten + 1 hidden layer: gradient-checkable probe.
    MlpProbe,
    /// Two conv stages: the smoke-profile workhorse.
    TinyCnn,
    /// Residual basic blocks (stands in for ResNet18).
    ResNetTiny,
    /// Inverted residuals with ReLU6 (stands in for MobileNetV2).
    MobileNetTiny,
    /// MBConv blocks with SiLU + squeeze-excite (stands in for
    /// EfficientNetB0).
    EffNetTiny,
    /// Widened residual stack (stands in for WideResNet50).
    WideResNetTiny,
}

impl ModelFamily {
    /// Builds a network of this family.
    ///
    /// `width` is the base channel count (8 is the Quick-profile default);
    /// `(c, h, w)` is the input image shape.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero or the architecture cannot be
    /// instantiated for the given shape (e.g. spatial dims too small) —
    /// model geometry is a configuration-time contract.
    pub fn build(
        self,
        c: usize,
        h: usize,
        w: usize,
        num_classes: usize,
        width: usize,
        seed: u64,
    ) -> Network {
        assert!(num_classes > 0, "num_classes must be positive");
        match self {
            ModelFamily::MlpProbe => mlp_probe(c, h, w, num_classes, seed),
            ModelFamily::TinyCnn => tiny_cnn(c, h, w, num_classes, width, seed),
            ModelFamily::ResNetTiny => resnet_tiny(c, h, w, num_classes, width, seed),
            ModelFamily::MobileNetTiny => mobilenet_tiny(c, h, w, num_classes, width, seed),
            ModelFamily::EffNetTiny => effnet_tiny(c, h, w, num_classes, width, seed),
            ModelFamily::WideResNetTiny => wide_resnet_tiny(c, h, w, num_classes, width, seed),
        }
    }

    /// Short display name.
    pub fn label(self) -> &'static str {
        match self {
            ModelFamily::MlpProbe => "mlp_probe",
            ModelFamily::TinyCnn => "tiny_cnn",
            ModelFamily::ResNetTiny => "resnet_tiny",
            ModelFamily::MobileNetTiny => "mobilenet_tiny",
            ModelFamily::EffNetTiny => "effnet_tiny",
            ModelFamily::WideResNetTiny => "wide_resnet_tiny",
        }
    }
}

fn die(e: impl std::fmt::Display) -> ! {
    panic!("model construction failed: {e}")
}

/// Flatten + one hidden ReLU layer. Used by doctests and gradient-check
/// style tests where convolution cost is unwanted.
///
/// # Panics
///
/// Panics on impossible geometry (zero-sized input).
pub fn mlp_probe(c: usize, h: usize, w: usize, num_classes: usize, seed: u64) -> Network {
    let mut r = rng::rng_from_seed(rng::derive_seed(seed, 0x11));
    let hidden = 32;
    let backbone = Sequential::new()
        .push(Flatten::new())
        .push(Linear::new(c * h * w, hidden, &mut r).unwrap_or_else(|e| die(e)))
        .push(Relu::new());
    let head =
        Sequential::new().push(Linear::new(hidden, num_classes, &mut r).unwrap_or_else(|e| die(e)));
    Network::new(backbone, head, (c, h, w), num_classes, "mlp_probe")
}

/// Two conv-bn-relu stages with max-pools and a position-preserving
/// flatten head. The smoke-profile model: trains in about a second on a few
/// hundred tiny images.
///
/// Unlike the four paper-family models (which end in global average
/// pooling, faithful to their architectures), this probe keeps spatial
/// positions in its penultimate features so localized patch triggers are
/// learnable at low poisoning ratios even at miniature scale.
///
/// # Panics
///
/// Panics if `h` or `w` is not divisible by 4 (two 2×2 max-pools).
pub fn tiny_cnn(
    c: usize,
    h: usize,
    w: usize,
    num_classes: usize,
    width: usize,
    seed: u64,
) -> Network {
    assert!(
        h % 4 == 0 && w % 4 == 0,
        "tiny_cnn needs dims divisible by 4, got {h}x{w}"
    );
    let mut r = rng::rng_from_seed(rng::derive_seed(seed, 0x22));
    let width = width.max(4);
    let backbone = Sequential::new()
        .push(Conv2d::new(c, width, 3, 1, 1, &mut r).unwrap_or_else(|e| die(e)))
        .push(BatchNorm2d::new(width).unwrap_or_else(|e| die(e)))
        .push(Relu::new())
        .push(MaxPool2d::new(2).unwrap_or_else(|e| die(e)))
        .push(Conv2d::new(width, width * 2, 3, 1, 1, &mut r).unwrap_or_else(|e| die(e)))
        .push(BatchNorm2d::new(width * 2).unwrap_or_else(|e| die(e)))
        .push(Relu::new())
        .push(MaxPool2d::new(2).unwrap_or_else(|e| die(e)))
        .push(Flatten::new());
    let feat = width * 2 * (h / 4) * (w / 4);
    let head =
        Sequential::new().push(Linear::new(feat, num_classes, &mut r).unwrap_or_else(|e| die(e)));
    Network::new(backbone, head, (c, h, w), num_classes, "tiny_cnn")
}

/// Residual network with three stages of basic blocks (ResNet18 family).
///
/// # Panics
///
/// Panics on impossible geometry.
pub fn resnet_tiny(
    c: usize,
    h: usize,
    w: usize,
    num_classes: usize,
    width: usize,
    seed: u64,
) -> Network {
    let mut r = rng::rng_from_seed(rng::derive_seed(seed, 0x33));
    let w1 = width.max(4);
    let backbone = Sequential::new()
        .push(Conv2d::new(c, w1, 3, 1, 1, &mut r).unwrap_or_else(|e| die(e)))
        .push(BatchNorm2d::new(w1).unwrap_or_else(|e| die(e)))
        .push(Relu::new())
        .push(ResidualBlock::new(w1, w1, 1, &mut r).unwrap_or_else(|e| die(e)))
        .push(ResidualBlock::new(w1, w1 * 2, 2, &mut r).unwrap_or_else(|e| die(e)))
        .push(ResidualBlock::new(w1 * 2, w1 * 4, 2, &mut r).unwrap_or_else(|e| die(e)))
        .push(GlobalAvgPool::new());
    let head =
        Sequential::new().push(Linear::new(w1 * 4, num_classes, &mut r).unwrap_or_else(|e| die(e)));
    Network::new(backbone, head, (c, h, w), num_classes, "resnet_tiny")
}

/// Inverted-residual network with ReLU6 (MobileNetV2 family).
///
/// # Panics
///
/// Panics on impossible geometry.
pub fn mobilenet_tiny(
    c: usize,
    h: usize,
    w: usize,
    num_classes: usize,
    width: usize,
    seed: u64,
) -> Network {
    let mut r = rng::rng_from_seed(rng::derive_seed(seed, 0x44));
    let w1 = width.max(4);
    let backbone = Sequential::new()
        .push(Conv2d::new(c, w1, 3, 1, 1, &mut r).unwrap_or_else(|e| die(e)))
        .push(BatchNorm2d::new(w1).unwrap_or_else(|e| die(e)))
        .push(Relu6::new())
        .push(InvertedResidual::mobilenet(w1, w1, 1, 2, &mut r).unwrap_or_else(|e| die(e)))
        .push(InvertedResidual::mobilenet(w1, w1 * 2, 2, 2, &mut r).unwrap_or_else(|e| die(e)))
        .push(InvertedResidual::mobilenet(w1 * 2, w1 * 2, 1, 2, &mut r).unwrap_or_else(|e| die(e)))
        .push(InvertedResidual::mobilenet(w1 * 2, w1 * 4, 2, 2, &mut r).unwrap_or_else(|e| die(e)))
        .push(GlobalAvgPool::new());
    let head =
        Sequential::new().push(Linear::new(w1 * 4, num_classes, &mut r).unwrap_or_else(|e| die(e)));
    Network::new(backbone, head, (c, h, w), num_classes, "mobilenet_tiny")
}

/// MBConv network with SiLU and squeeze-excite (EfficientNetB0 family).
///
/// # Panics
///
/// Panics on impossible geometry.
pub fn effnet_tiny(
    c: usize,
    h: usize,
    w: usize,
    num_classes: usize,
    width: usize,
    seed: u64,
) -> Network {
    let mut r = rng::rng_from_seed(rng::derive_seed(seed, 0x55));
    let w1 = width.max(4);
    let backbone = Sequential::new()
        .push(Conv2d::new(c, w1, 3, 1, 1, &mut r).unwrap_or_else(|e| die(e)))
        .push(BatchNorm2d::new(w1).unwrap_or_else(|e| die(e)))
        .push(Silu::new())
        .push(InvertedResidual::mbconv(w1, w1, 1, 1, &mut r).unwrap_or_else(|e| die(e)))
        .push(InvertedResidual::mbconv(w1, w1 * 2, 2, 2, &mut r).unwrap_or_else(|e| die(e)))
        .push(InvertedResidual::mbconv(w1 * 2, w1 * 4, 2, 2, &mut r).unwrap_or_else(|e| die(e)))
        .push(GlobalAvgPool::new());
    let head =
        Sequential::new().push(Linear::new(w1 * 4, num_classes, &mut r).unwrap_or_else(|e| die(e)));
    Network::new(backbone, head, (c, h, w), num_classes, "effnet_tiny")
}

/// Widened residual network: double width, two blocks per stage
/// (WideResNet50 family).
///
/// # Panics
///
/// Panics on impossible geometry.
pub fn wide_resnet_tiny(
    c: usize,
    h: usize,
    w: usize,
    num_classes: usize,
    width: usize,
    seed: u64,
) -> Network {
    let mut r = rng::rng_from_seed(rng::derive_seed(seed, 0x66));
    let w1 = width.max(4) * 2;
    let backbone = Sequential::new()
        .push(Conv2d::new(c, w1, 3, 1, 1, &mut r).unwrap_or_else(|e| die(e)))
        .push(BatchNorm2d::new(w1).unwrap_or_else(|e| die(e)))
        .push(Relu::new())
        .push(ResidualBlock::new(w1, w1, 1, &mut r).unwrap_or_else(|e| die(e)))
        .push(ResidualBlock::new(w1, w1 * 2, 2, &mut r).unwrap_or_else(|e| die(e)))
        .push(ResidualBlock::new(w1 * 2, w1 * 2, 1, &mut r).unwrap_or_else(|e| die(e)))
        .push(ResidualBlock::new(w1 * 2, w1 * 4, 2, &mut r).unwrap_or_else(|e| die(e)))
        .push(GlobalAvgPool::new());
    let head =
        Sequential::new().push(Linear::new(w1 * 4, num_classes, &mut r).unwrap_or_else(|e| die(e)));
    Network::new(backbone, head, (c, h, w), num_classes, "wide_resnet_tiny")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use reveil_tensor::Tensor;

    const FAMILIES: [ModelFamily; 6] = [
        ModelFamily::MlpProbe,
        ModelFamily::TinyCnn,
        ModelFamily::ResNetTiny,
        ModelFamily::MobileNetTiny,
        ModelFamily::EffNetTiny,
        ModelFamily::WideResNetTiny,
    ];

    #[test]
    fn every_family_produces_correct_logit_shape() {
        for family in FAMILIES {
            let mut net = family.build(3, 8, 8, 7, 4, 42);
            let x = Tensor::from_fn(&[2, 3, 8, 8], |i| (i % 11) as f32 * 0.05);
            let logits = net.forward(&x, Mode::Train);
            assert_eq!(logits.shape(), &[2, 7], "family {}", family.label());
        }
    }

    #[test]
    fn every_family_backward_reaches_input() {
        for family in FAMILIES {
            let mut net = family.build(3, 8, 8, 4, 4, 1);
            let x = Tensor::from_fn(&[2, 3, 8, 8], |i| (i % 7) as f32 * 0.1);
            let logits = net.forward(&x, Mode::Train);
            net.zero_grads();
            let dx = net.backward_to_input(&Tensor::ones(logits.shape()));
            assert_eq!(dx.shape(), x.shape(), "family {}", family.label());
            assert!(
                dx.data().iter().any(|&v| v != 0.0),
                "family {} produced an all-zero input gradient",
                family.label()
            );
        }
    }

    #[test]
    fn builders_are_seed_deterministic() {
        let mut a = resnet_tiny(3, 8, 8, 5, 4, 99);
        let mut b = resnet_tiny(3, 8, 8, 5, 4, 99);
        assert_eq!(a.state_vec(), b.state_vec());
        let mut c = resnet_tiny(3, 8, 8, 5, 4, 100);
        assert_ne!(a.state_vec(), c.state_vec());
    }

    #[test]
    fn family_labels_match_network_families() {
        for family in FAMILIES {
            let net = family.build(1, 8, 8, 2, 4, 0);
            assert_eq!(net.family(), family.label());
        }
    }

    #[test]
    fn features_are_pooled_vectors() {
        let mut net = effnet_tiny(3, 8, 8, 10, 4, 3);
        let x = Tensor::zeros(&[3, 3, 8, 8]);
        let f = net.features(&x, Mode::Eval);
        assert_eq!(f.ndim(), 2);
        assert_eq!(f.shape()[0], 3);
    }

    #[test]
    #[should_panic(expected = "num_classes")]
    fn zero_classes_rejected() {
        ModelFamily::TinyCnn.build(3, 8, 8, 0, 4, 0);
    }
}
