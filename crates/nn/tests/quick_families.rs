//! Fixed-seed digests of the two model families only the Quick profile
//! trains.
//!
//! The Smoke suite, its goldens and the benchmark's `--small` runs train
//! `tiny_cnn` only, so none of them reaches depthwise convolution, SiLU,
//! ReLU6 or squeeze-excite. This test trains `mobilenet_tiny` and
//! `effnet_tiny` at the Quick shape (batch 32, 3×16×16, width 8) for a few
//! Adam steps with the Quick recipe's learning rate and weight decay, then
//! runs one Eval forward and one input-gradient backward, the pass Neural
//! Cleanse repeats. An FNV-1a hash over the bits of the trained state, the
//! logits and the input gradient must equal the recorded constant.
//!
//! A rewrite of a layer kernel must keep every result bit for bit, so a
//! changed digest here is a changed result: either the change is a bug,
//! or it is deliberate and regenerates `results/quick` together with
//! these constants. Every kernel runs on its caller's
//! thread, so the digests hold at any `REVEIL_THREADS`.

use reveil_nn::loss::softmax_cross_entropy_into;
use reveil_nn::models::ModelFamily;
use reveil_nn::optim::Adam;
use reveil_nn::train::TrainStep;
use reveil_nn::{Backward, Mode};
use reveil_tensor::{rng, Tensor};

const BATCH: usize = 32;
const CHANNELS: usize = 3;
const SIDE: usize = 16;
const WIDTH: usize = 8;
const STEPS: usize = 3;

/// FNV-1a over the bit patterns of every value, in order.
fn fnv1a(hash: u64, values: &[f32]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(hash, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Trains `family` for [`STEPS`] steps on one fixed batch, then hashes the
/// state, the Eval logits and the input gradient of the Eval pass.
fn digest(family: ModelFamily, classes: usize, seed: u64) -> u64 {
    let mut net = family.build(CHANNELS, SIDE, SIDE, classes, WIDTH, seed);
    let mut batch = Tensor::zeros(&[BATCH, CHANNELS, SIDE, SIDE]);
    rng::fill_uniform(
        &mut batch,
        -1.0,
        1.0,
        &mut rng::rng_from_seed(seed ^ 0xB47C),
    );
    let labels: Vec<usize> = (0..BATCH).map(|i| (i * 7 + 3) % classes).collect();

    let mut opt = Adam::new(5e-3).with_weight_decay(1e-4);
    let mut step = TrainStep::new();
    for _ in 0..STEPS {
        let loss = step
            .run(&mut net, &mut opt, &batch, &labels)
            .expect("the batch matches the network");
        assert!(loss.is_finite(), "{}: loss {loss}", family.label());
    }

    let (mut logits, mut grad_logits, mut grad_input) =
        (Tensor::default(), Tensor::default(), Tensor::default());
    net.forward_into(&batch, Mode::Eval, &mut logits);
    softmax_cross_entropy_into(&logits, &labels, &mut grad_logits)
        .expect("the logits match the labels");
    net.backward_into(&grad_logits, Backward::InputOnly, &mut grad_input);
    assert_eq!(grad_input.shape(), batch.shape());

    let hash = fnv1a(0xcbf2_9ce4_8422_2325, &net.state_vec());
    fnv1a(fnv1a(hash, logits.data()), grad_input.data())
}

#[test]
fn mobilenet_quick_digest_is_pinned() {
    assert_eq!(
        digest(ModelFamily::MobileNetTiny, 8, 41),
        0xe4d4_0401_9d62_f17d,
        "mobilenet_tiny results moved"
    );
}

#[test]
fn effnet_quick_digest_is_pinned() {
    assert_eq!(
        digest(ModelFamily::EffNetTiny, 10, 42),
        0x0fde_c1c6_7f97_ba97,
        "effnet_tiny results moved"
    );
}
