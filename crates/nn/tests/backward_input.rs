//! The input-gradient-only and the parameter-only backward, pinned against
//! the full backward.
//!
//! For every layer that skips work under some `Backward` and for every
//! model family, after an Eval and after a Train forward pass:
//! * `Backward::InputOnly` must give the input gradient (and, for
//!   networks, the backbone boundary gradients) of `Backward::Full` bit
//!   for bit, and must leave every parameter gradient exactly as it found
//!   it;
//! * `Backward::ParamsOnly` must leave every parameter gradient (and, for
//!   networks, every backbone boundary gradient) exactly as
//!   `Backward::Full` does, bit for bit, from the same starting gradients.

use rand::rngs::StdRng;

use reveil_nn::layers::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, InvertedResidual, Linear, Relu, ResidualBlock,
    SqueezeExcite,
};
use reveil_nn::models::ModelFamily;
use reveil_nn::{Backward, Layer, Mode, Network, Param, Sequential};
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

/// The bits of every parameter gradient, in `visit_params` order.
fn grad_bits(visit: impl FnOnce(&mut dyn FnMut(&mut Param))) -> Vec<Vec<u32>> {
    let mut grads = Vec::new();
    visit(&mut |p: &mut Param| grads.push(bits(p.grad())));
    grads
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

/// Two identical instances of a layer, each after a Train warm-up pass
/// (which gives batch-norm running statistics something other than their
/// initial values) and one `mode` forward pass, and an output gradient.
fn forwarded_layers(
    make: Factory,
    shape: &[usize],
    mode: Mode,
) -> (Box<dyn Layer>, Box<dyn Layer>, Tensor) {
    let (mut a, mut b) = (
        make(&mut rng::rng_from_seed(5)),
        make(&mut rng::rng_from_seed(5)),
    );
    let warm = probe(shape, 7);
    a.forward(&warm, Mode::Train);
    b.forward(&warm, Mode::Train);
    let x = probe(shape, 0);
    let y = a.forward(&x, mode);
    assert_eq!(bits(&y), bits(&b.forward(&x, mode)));
    (a, b, probe(y.shape(), 3))
}

/// Every layer with parameters and every container, with an input shape.
fn layers_with_params() -> Vec<(&'static str, Factory, Vec<usize>)> {
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
    for (name, make, shape) in layers_with_params() {
        for mode in [Mode::Eval, Mode::Train] {
            let (mut full, mut input_only, g) = forwarded_layers(make, &shape, mode);

            full.visit_params(&mut |p| p.zero_grad());
            let mut dx_full = Tensor::default();
            full.backward_into(&g, Backward::Full, &mut dx_full);

            input_only.visit_params(&mut fill_sentinel);
            let mut dx = Tensor::default();
            input_only.backward_into(&g, Backward::InputOnly, &mut dx);

            assert_eq!(dx.shape(), dx_full.shape(), "{name} {mode:?}");
            assert_eq!(
                bits(&dx),
                bits(&dx_full),
                "{name} {mode:?}: input gradient differs"
            );
            let (untouched, _) = grad_summary(|f| input_only.visit_params(f));
            assert!(
                untouched,
                "{name} {mode:?}: InputOnly wrote a parameter gradient"
            );
            let (_, accumulated) = grad_summary(|f| full.visit_params(f));
            assert!(accumulated, "{name} {mode:?}: Full accumulated no gradient");
        }
    }
}

#[test]
fn params_only_backward_matches_backward_into_for_every_overriding_layer() {
    for (name, make, shape) in layers_with_params() {
        for mode in [Mode::Eval, Mode::Train] {
            let (mut full, mut params_only, g) = forwarded_layers(make, &shape, mode);
            full.visit_params(&mut fill_sentinel);
            params_only.visit_params(&mut fill_sentinel);

            full.backward_into(&g, Backward::Full, &mut Tensor::default());
            params_only.backward_into(&g, Backward::ParamsOnly, &mut Tensor::default());

            assert_eq!(
                grad_bits(|f| params_only.visit_params(f)),
                grad_bits(|f| full.visit_params(f)),
                "{name} {mode:?}: parameter gradients differ"
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

/// Two identical networks of `family`, each after a Train warm-up pass and
/// one `mode` forward pass, and a logits gradient.
fn forwarded_nets(family: ModelFamily, mode: Mode) -> (Network, Network, Tensor) {
    let (mut a, mut b) = (family_net(family), family_net(family));
    let warm = probe(&[4, 3, 8, 8], 7);
    a.forward(&warm, Mode::Train);
    b.forward(&warm, Mode::Train);
    let x = probe(&[2, 3, 8, 8], 0);
    let logits = a.forward(&x, mode);
    assert_eq!(bits(&logits), bits(&b.forward(&x, mode)));
    (a, b, probe(logits.shape(), 3))
}

fn boundary_bits(net: &Network) -> Vec<Vec<u32>> {
    net.backbone_boundary_grads().iter().map(bits).collect()
}

#[test]
fn every_model_family_matches_backward_to_input_and_leaves_param_grads() {
    for family in FAMILIES {
        for mode in [Mode::Eval, Mode::Train] {
            let label = family.label();
            let (mut full, mut input_only, g) = forwarded_nets(family, mode);

            full.zero_grads();
            let mut dx_full = Tensor::default();
            full.backward_into(&g, Backward::Full, &mut dx_full);

            input_only.visit_params(&mut fill_sentinel);
            let mut dx = Tensor::default();
            input_only.backward_into(&g, Backward::InputOnly, &mut dx);

            assert_eq!(dx.shape(), &[2, 3, 8, 8], "{label} {mode:?}");
            assert_eq!(
                bits(&dx),
                bits(&dx_full),
                "{label} {mode:?}: input gradient differs"
            );
            assert_eq!(
                boundary_bits(&input_only),
                boundary_bits(&full),
                "{label} {mode:?}: boundary gradients differ"
            );
            let (untouched, _) = grad_summary(|f| input_only.visit_params(f));
            assert!(
                untouched,
                "{label} {mode:?}: InputOnly wrote a parameter gradient"
            );
            let (_, accumulated) = grad_summary(|f| full.visit_params(f));
            assert!(
                accumulated,
                "{label} {mode:?}: Full accumulated no gradient"
            );
        }
    }
}

#[test]
fn params_only_backward_matches_backward_to_input_for_every_model_family() {
    for family in FAMILIES {
        for mode in [Mode::Eval, Mode::Train] {
            let label = family.label();
            let (mut full, mut params_only, g) = forwarded_nets(family, mode);
            full.visit_params(&mut fill_sentinel);
            params_only.visit_params(&mut fill_sentinel);

            full.backward_into(&g, Backward::Full, &mut Tensor::default());
            params_only.backward_into(&g, Backward::ParamsOnly, &mut Tensor::default());

            assert_eq!(
                grad_bits(|f| params_only.visit_params(f)),
                grad_bits(|f| full.visit_params(f)),
                "{label} {mode:?}: parameter gradients differ"
            );
            assert_eq!(
                boundary_bits(&params_only),
                boundary_bits(&full),
                "{label} {mode:?}: boundary gradients differ"
            );
        }
    }
}
