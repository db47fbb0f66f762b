//! The input-gradient-only backward, pinned against the training backward.
//!
//! For every layer that overrides `Layer::backward_input_into` and for
//! every model family, after an Eval and after a Train forward pass,
//! `backward_input_into` must give the input gradient (and, for networks,
//! the backbone boundary gradients) of `backward_into` bit for bit, and
//! must leave every parameter gradient exactly as it found it.

use rand::rngs::StdRng;

use reveil_nn::layers::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, InvertedResidual, Linear, Relu, ResidualBlock,
    SqueezeExcite,
};
use reveil_nn::models::ModelFamily;
use reveil_nn::{Layer, Mode, Network, Param, Sequential};
use reveil_tensor::{rng, Tensor};

/// Parameter-gradient fill the input-only path must leave in place.
const SENTINEL: f32 = -1234.5;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn probe(shape: &[usize], salt: usize) -> Tensor {
    Tensor::from_fn(shape, |i| ((i * 13 + salt) % 23) as f32 * 0.1 - 1.1)
}

fn fill_sentinel(p: &mut Param) {
    p.grad_mut().data_mut().fill(SENTINEL);
}

/// Whether every parameter gradient still holds the sentinel, and whether
/// any of them is non-zero, over one `visit_params` walk.
fn grad_summary(visit: impl FnOnce(&mut dyn FnMut(&mut Param))) -> (bool, bool) {
    let (mut all_sentinel, mut any_nonzero) = (true, false);
    visit(&mut |p: &mut Param| {
        all_sentinel &= p.grad().data().iter().all(|&g| g == SENTINEL);
        any_nonzero |= p.grad().data().iter().any(|&g| g != 0.0);
    });
    (all_sentinel, any_nonzero)
}

type Factory = fn(&mut StdRng) -> Box<dyn Layer>;

/// Every layer that overrides `backward_input_into`, with an input shape.
fn overriding_layers() -> Vec<(&'static str, Factory, Vec<usize>)> {
    vec![
        (
            "conv2d",
            |r| Box::new(Conv2d::new(3, 4, 3, 1, 1, r).unwrap()),
            vec![2, 3, 6, 6],
        ),
        (
            "strided conv2d",
            |r| Box::new(Conv2d::new(3, 4, 3, 2, 1, r).unwrap()),
            vec![2, 3, 7, 7],
        ),
        (
            "depthwise",
            |r| Box::new(DepthwiseConv2d::new(3, 3, 1, 1, r).unwrap()),
            vec![2, 3, 6, 6],
        ),
        (
            "strided depthwise",
            |r| Box::new(DepthwiseConv2d::new(3, 3, 2, 1, r).unwrap()),
            vec![2, 3, 7, 7],
        ),
        (
            "linear",
            |r| Box::new(Linear::new(5, 4, r).unwrap()),
            vec![3, 5],
        ),
        (
            "batchnorm",
            |_| Box::new(BatchNorm2d::new(3).unwrap()),
            vec![2, 3, 4, 4],
        ),
        (
            "sequential",
            |r| {
                Box::new(
                    Sequential::new()
                        .push(Conv2d::new(3, 4, 3, 1, 1, r).unwrap())
                        .push(BatchNorm2d::new(4).unwrap())
                        .push(Relu::new()),
                )
            },
            vec![2, 3, 5, 5],
        ),
        (
            "residual (identity)",
            |r| Box::new(ResidualBlock::new(3, 3, 1, r).unwrap()),
            vec![2, 3, 4, 4],
        ),
        (
            "residual (projected)",
            |r| Box::new(ResidualBlock::new(3, 4, 2, r).unwrap()),
            vec![2, 3, 4, 4],
        ),
        (
            "inverted residual",
            |r| Box::new(InvertedResidual::mobilenet(3, 3, 1, 2, r).unwrap()),
            vec![2, 3, 4, 4],
        ),
        (
            "mbconv",
            |r| Box::new(InvertedResidual::mbconv(3, 3, 1, 2, r).unwrap()),
            vec![2, 3, 4, 4],
        ),
        (
            "squeeze-excite",
            |r| Box::new(SqueezeExcite::new(4, 2, r).unwrap()),
            vec![2, 4, 3, 3],
        ),
    ]
}

#[test]
fn every_overriding_layer_matches_backward_into_and_leaves_param_grads() {
    for (name, make, shape) in overriding_layers() {
        for mode in [Mode::Eval, Mode::Train] {
            // Two identical instances; a Train warm-up pass gives batch-norm
            // running statistics something other than their initial values.
            let (mut full, mut input_only) = (
                make(&mut rng::rng_from_seed(5)),
                make(&mut rng::rng_from_seed(5)),
            );
            let warm = probe(&shape, 7);
            full.forward(&warm, Mode::Train);
            input_only.forward(&warm, Mode::Train);

            let x = probe(&shape, 0);
            let y = full.forward(&x, mode);
            assert_eq!(
                bits(&y),
                bits(&input_only.forward(&x, mode)),
                "{name} {mode:?}"
            );
            let g = probe(y.shape(), 3);

            full.visit_params(&mut |p| p.zero_grad());
            let mut dx_full = Tensor::default();
            full.backward_into(&g, &mut dx_full);

            input_only.visit_params(&mut fill_sentinel);
            let mut dx = Tensor::default();
            input_only.backward_input_into(&g, &mut dx);

            assert_eq!(dx.shape(), dx_full.shape(), "{name} {mode:?}");
            assert_eq!(
                bits(&dx),
                bits(&dx_full),
                "{name} {mode:?}: input gradient differs"
            );
            let (untouched, _) = grad_summary(|f| input_only.visit_params(f));
            assert!(
                untouched,
                "{name} {mode:?}: backward_input_into wrote a parameter gradient"
            );
            let (_, accumulated) = grad_summary(|f| full.visit_params(f));
            assert!(
                accumulated,
                "{name} {mode:?}: backward_into accumulated no gradient"
            );
        }
    }
}

const FAMILIES: [ModelFamily; 6] = [
    ModelFamily::MlpProbe,
    ModelFamily::TinyCnn,
    ModelFamily::ResNetTiny,
    ModelFamily::MobileNetTiny,
    ModelFamily::EffNetTiny,
    ModelFamily::WideResNetTiny,
];

fn family_net(family: ModelFamily) -> Network {
    family.build(3, 8, 8, 4, 4, 21)
}

#[test]
fn every_model_family_matches_backward_to_input_and_leaves_param_grads() {
    for family in FAMILIES {
        for mode in [Mode::Eval, Mode::Train] {
            let label = family.label();
            let (mut full, mut input_only) = (family_net(family), family_net(family));
            let warm = probe(&[4, 3, 8, 8], 7);
            full.forward(&warm, Mode::Train);
            input_only.forward(&warm, Mode::Train);

            let x = probe(&[2, 3, 8, 8], 0);
            let logits = full.forward(&x, mode);
            assert_eq!(
                bits(&logits),
                bits(&input_only.forward(&x, mode)),
                "{label} {mode:?}"
            );
            let g = probe(logits.shape(), 3);

            full.zero_grads();
            let mut dx_full = Tensor::default();
            full.backward_to_input_into(&g, &mut dx_full);

            input_only.visit_params(&mut fill_sentinel);
            let mut dx = Tensor::default();
            input_only.backward_input_into(&g, &mut dx);

            assert_eq!(dx.shape(), x.shape(), "{label} {mode:?}");
            assert_eq!(
                bits(&dx),
                bits(&dx_full),
                "{label} {mode:?}: input gradient differs"
            );
            let boundary = |net: &Network| -> Vec<Vec<u32>> {
                net.backbone_boundary_grads().iter().map(bits).collect()
            };
            assert_eq!(
                boundary(&input_only),
                boundary(&full),
                "{label} {mode:?}: boundary gradients differ"
            );
            let (untouched, _) = grad_summary(|f| input_only.visit_params(f));
            assert!(
                untouched,
                "{label} {mode:?}: backward_input_into wrote a parameter gradient"
            );
            let (_, accumulated) = grad_summary(|f| full.visit_params(f));
            assert!(
                accumulated,
                "{label} {mode:?}: backward_to_input accumulated no gradient"
            );
        }
    }
}
