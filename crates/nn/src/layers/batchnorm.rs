//! 2-D batch normalisation.

use reveil_tensor::Tensor;

use crate::layers::{backward_before_forward, check_backward_shape, expect_nchw, resize_buffer};
use crate::{Backward, Layer, Mode, NnError, Param};

/// Batch normalisation over the channel axis of `[n, c, h, w]` inputs.
///
/// In [`Mode::Train`] the layer normalises with batch statistics and updates
/// exponential running statistics; in [`Mode::Eval`] it normalises with the
/// running statistics, which keeps the layer differentiable with respect to
/// its input — a property Neural Cleanse's input-space optimisation relies
/// on.
///
/// All intermediates (the normalised activations x̂, per-channel statistics
/// and per-channel gradient accumulators) live in reusable buffers, so
/// forward and backward allocate nothing once warmed up — previously this
/// layer allocated three to four full-size tensors per pass.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    channels: usize,
    momentum: f32,
    eps: f32,
    /// Normalised activations x̂ from the last forward pass.
    x_hat: Tensor,
    /// Per-channel batch mean (train mode).
    mean: Vec<f32>,
    /// Per-channel batch variance (train mode).
    var: Vec<f32>,
    /// Per-channel 1/√(var + ε) used in the forward pass.
    inv_std: Vec<f32>,
    /// Per-channel sums Σ(g·x̂) and Σg (backward scratch): dγ and dβ.
    dgamma: Vec<f32>,
    dbeta: Vec<f32>,
    input_shape: Vec<usize>,
    mode: Mode,
    ready: bool,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with γ = 1, β = 0, momentum 0.1 and
    /// ε = 1e-5 (the PyTorch defaults the paper trains with).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `channels` is zero.
    pub fn new(channels: usize) -> Result<Self, NnError> {
        if channels == 0 {
            return Err(NnError::InvalidConfig {
                what: "BatchNorm2d",
                message: "channels must be positive".to_string(),
            });
        }
        Ok(Self {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            channels,
            momentum: 0.1,
            eps: 1e-5,
            x_hat: Tensor::default(),
            mean: Vec::new(),
            var: Vec::new(),
            inv_std: Vec::new(),
            dgamma: Vec::new(),
            dbeta: Vec::new(),
            input_shape: Vec::new(),
            mode: Mode::Eval,
            ready: false,
        })
    }

    /// Current running mean (one value per channel).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Current running variance (one value per channel).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }
}

/// Planes whose sum chains one statistics pass runs side by side.
const PLANE_GROUP: usize = 8;

/// Adds `term(ch, x)` over each `[h, w]` plane of `input` into its
/// channel's entry of `totals`, image by image.
///
/// Each plane's sum is one chain that starts where `Iterator::sum` starts
/// and adds the plane's terms in order, so it equals
/// `plane.iter().map(..).sum::<f32>()` bit for bit. The chains of up to
/// [`PLANE_GROUP`] planes of one image run side by side, so one add's
/// latency no longer bounds the pass.
fn add_plane_sums(
    input: &[f32],
    plane: usize,
    totals: &mut [f32],
    term: impl Fn(usize, f32) -> f32,
) {
    let neutral: f32 = std::iter::empty::<f32>().sum();
    for image in input.chunks_exact(totals.len() * plane) {
        let groups = totals
            .chunks_mut(PLANE_GROUP)
            .zip(image.chunks(PLANE_GROUP * plane));
        for (g, (totals, group)) in groups.enumerate() {
            // A short group pads with chains over its first plane that are
            // dropped.
            let lane = |j: usize| if j < totals.len() { j } else { 0 };
            let rows: [&[f32]; PLANE_GROUP] =
                std::array::from_fn(|j| &group[lane(j) * plane..][..plane]);
            let channels: [usize; PLANE_GROUP] = std::array::from_fn(|j| g * PLANE_GROUP + lane(j));
            let mut acc = [neutral; PLANE_GROUP];
            for i in 0..plane {
                for ((acc, row), &ch) in acc.iter_mut().zip(&rows).zip(&channels) {
                    *acc += term(ch, row[i]);
                }
            }
            for (total, &sum) in totals.iter_mut().zip(&acc) {
                *total += sum;
            }
        }
    }
}

/// The normalize pass of both modes, plane by plane: `x̂ = (x − μ)·inv_std`
/// and `y = γ·x̂ + β` with the channel's statistics.
fn normalize(
    input: &[f32],
    plane: usize,
    [mean, inv_std, gamma, beta]: [&[f32]; 4],
    x_hat: &mut [f32],
    out: &mut [f32],
) {
    let planes = input
        .chunks_exact(plane)
        .zip(x_hat.chunks_exact_mut(plane))
        .zip(out.chunks_exact_mut(plane))
        .zip((0..mean.len()).cycle());
    for (((x, xh), y), ch) in planes {
        let (mu, is, g, b) = (mean[ch], inv_std[ch], gamma[ch], beta[ch]);
        for ((xh, y), &x) in xh.iter_mut().zip(y.iter_mut()).zip(x) {
            let v = (x - mu) * is;
            *xh = v;
            *y = g * v + b;
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward_into(&mut self, input: &Tensor, mode: Mode, out: &mut Tensor) {
        let (n, c, h, w) = expect_nchw("BatchNorm2d", input);
        assert_eq!(
            c, self.channels,
            "BatchNorm2d::forward configured for {} channels, got {c}",
            self.channels
        );
        let plane = h * w;
        let m = (n * plane) as f32;
        let gamma = self.gamma.value().data();
        let beta = self.beta.value().data();
        resize_buffer(out, input.shape());
        resize_buffer(&mut self.x_hat, input.shape());

        match mode {
            Mode::Train => {
                self.mean.clear();
                self.mean.resize(c, 0.0);
                self.var.clear();
                self.var.resize(c, 0.0);
                add_plane_sums(input.data(), plane, &mut self.mean, |_, x| x);
                for v in &mut self.mean {
                    *v /= m;
                }
                let mean = &self.mean;
                add_plane_sums(input.data(), plane, &mut self.var, |ch, x| {
                    let d = x - mean[ch];
                    d * d
                });
                for v in &mut self.var {
                    *v /= m;
                }
                self.inv_std.clear();
                self.inv_std
                    .extend(self.var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()));
                let stats = [&self.mean[..], &self.inv_std, gamma, beta];
                normalize(
                    input.data(),
                    plane,
                    stats,
                    self.x_hat.data_mut(),
                    out.data_mut(),
                );
                // Exponential running statistics, updated with the biased
                // batch variance (the same variance the forward normalises
                // by).
                for ch in 0..c {
                    let rm = &mut self.running_mean.data_mut()[ch];
                    *rm = (1.0 - self.momentum) * *rm + self.momentum * self.mean[ch];
                    let rv = &mut self.running_var.data_mut()[ch];
                    *rv = (1.0 - self.momentum) * *rv + self.momentum * self.var[ch];
                }
            }
            Mode::Eval => {
                self.inv_std.clear();
                self.inv_std.extend(
                    self.running_var
                        .data()
                        .iter()
                        .map(|&v| 1.0 / (v + self.eps).sqrt()),
                );
                let stats = [self.running_mean.data(), &self.inv_std, gamma, beta];
                normalize(
                    input.data(),
                    plane,
                    stats,
                    self.x_hat.data_mut(),
                    out.data_mut(),
                );
            }
        }
        self.input_shape.clear();
        self.input_shape.extend_from_slice(input.shape());
        self.mode = mode;
        self.ready = true;
    }

    fn backward_into(&mut self, grad_output: &Tensor, grads: Backward, grad_input: &mut Tensor) {
        if !self.ready {
            backward_before_forward("BatchNorm2d");
        }
        check_backward_shape("BatchNorm2d", &self.input_shape, grad_output.shape());
        let (n, c) = (self.input_shape[0], self.input_shape[1]);
        let plane = self.input_shape[2] * self.input_shape[3];
        // Σ(g·x̂) and Σg per channel, each over (image, position) in order:
        // the γ and β gradients, which the train-mode input gradient also
        // reads.
        if grads.params() || self.mode == Mode::Train {
            let (grad, x_hat) = (grad_output.data(), self.x_hat.data());
            self.dgamma.clear();
            self.dbeta.clear();
            for ch in 0..c {
                let (mut sum_gx, mut sum_g) = (0.0f32, 0.0f32);
                for img in 0..n {
                    let base = (img * c + ch) * plane;
                    let planes = grad[base..base + plane].iter().zip(&x_hat[base..]);
                    for (&g, &xh) in planes {
                        sum_gx += g * xh;
                        sum_g += g;
                    }
                }
                self.dgamma.push(sum_gx);
                self.dbeta.push(sum_g);
            }
        }
        if grads.params() {
            let gamma_grad = self.gamma.grad_mut().data_mut();
            let beta_grad = self.beta.grad_mut().data_mut();
            for ch in 0..self.channels {
                gamma_grad[ch] += self.dgamma[ch];
                beta_grad[ch] += self.dbeta[ch];
            }
        }
        if !grads.input() {
            return;
        }
        let m = (n * plane) as f32;
        resize_buffer(grad_input, grad_output.shape());
        let gamma = self.gamma.value().data();
        let planes = grad_input
            .data_mut()
            .chunks_exact_mut(plane)
            .zip(grad_output.data().chunks_exact(plane))
            .zip((0..c).cycle());
        match self.mode {
            Mode::Train => {
                // dx = (γ·inv_std / m) · (m·g − Σg − x̂·Σ(g·x̂)) per channel.
                let x_hat = self.x_hat.data().chunks_exact(plane);
                for (((dx, grad), ch), xh) in planes.zip(x_hat) {
                    let coeff = gamma[ch] * self.inv_std[ch] / m;
                    let (sum_g, sum_gx) = (self.dbeta[ch], self.dgamma[ch]);
                    for ((d, &g), &xh) in dx.iter_mut().zip(grad).zip(xh) {
                        *d = coeff * (m * g - sum_g - xh * sum_gx);
                    }
                }
            }
            Mode::Eval => {
                // Running statistics are constants: dx = g·γ·inv_std.
                for ((dx, grad), ch) in planes {
                    let coeff = gamma[ch] * self.inv_std[ch];
                    for (d, &g) in dx.iter_mut().zip(grad) {
                        *d = coeff * g;
                    }
                }
            }
        }
    }

    fn buffer_capacity(&self) -> usize {
        self.x_hat.capacity()
            + self.mean.capacity()
            + self.var.capacity()
            + self.inv_std.capacity()
            + self.dgamma.capacity()
            + self.dbeta.capacity()
    }

    fn release_buffers(&mut self) {
        self.x_hat = Tensor::default();
        self.mean = Vec::new();
        self.var = Vec::new();
        self.inv_std = Vec::new();
        self.dgamma = Vec::new();
        self.dbeta = Vec::new();
        self.input_shape = Vec::new();
        self.ready = false;
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(self.gamma.value_mut());
        f(self.beta.value_mut());
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    #[test]
    fn train_mode_normalises_batch() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let x = Tensor::from_fn(&[4, 2, 3, 3], |i| (i % 13) as f32);
        let y = bn.forward(&x, Mode::Train);
        // Per-channel mean ≈ 0, var ≈ 1 after normalisation (γ=1, β=0).
        let plane = 9;
        for ch in 0..2 {
            let mut vals = Vec::new();
            for img in 0..4 {
                let base = (img * 2 + ch) * plane;
                vals.extend_from_slice(&y.data()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_mode_uses_running_statistics() {
        let mut bn = BatchNorm2d::new(1).unwrap();
        // Warm up running stats on a mean-10, variance-1 distribution.
        let x = Tensor::from_fn(&[8, 1, 2, 2], |i| if i % 2 == 0 { 9.0 } else { 11.0 });
        for _ in 0..100 {
            bn.forward(&x, Mode::Train);
        }
        assert!((bn.running_mean().data()[0] - 10.0).abs() < 0.05);
        assert!((bn.running_var().data()[0] - 1.0).abs() < 0.05);
        // Eval on the same input: output ≈ (x − 10) / 1 = ±1.
        let y = bn.forward(&x, Mode::Eval);
        for (i, &v) in y.data().iter().enumerate() {
            let expected = if i % 2 == 0 { -1.0 } else { 1.0 };
            assert!((v - expected).abs() < 0.1, "index {i}: {v}");
        }
    }

    #[test]
    fn train_gradient_matches_finite_difference() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let x = Tensor::from_fn(&[3, 2, 2, 2], |i| ((i * 19 % 11) as f32 - 5.0) * 0.4);
        gradcheck::check_input_gradient(&mut bn, &x, Mode::Train, 2e-2);
    }

    #[test]
    fn eval_gradient_matches_finite_difference() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        // Give the running stats some structure first.
        let warm = Tensor::from_fn(&[4, 2, 2, 2], |i| (i % 7) as f32);
        bn.forward(&warm, Mode::Train);
        let x = Tensor::from_fn(&[3, 2, 2, 2], |i| ((i * 19 % 11) as f32 - 5.0) * 0.4);
        gradcheck::check_input_gradient(&mut bn, &x, Mode::Eval, 2e-2);
    }

    #[test]
    fn param_gradients_match_finite_difference() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let x = Tensor::from_fn(&[3, 2, 2, 2], |i| ((i * 23 % 13) as f32 - 6.0) * 0.3);
        gradcheck::check_param_gradients(&mut bn, &x, Mode::Train, 2e-2);
    }

    #[test]
    fn state_includes_running_buffers() {
        let mut bn = BatchNorm2d::new(3).unwrap();
        let mut count = 0;
        bn.visit_state(&mut |_| count += 1);
        assert_eq!(count, 4, "gamma, beta, running_mean, running_var");
        let mut params = 0;
        bn.visit_params(&mut |_| params += 1);
        assert_eq!(params, 2, "only gamma and beta are trainable");
    }

    #[test]
    fn rejects_zero_channels() {
        assert!(BatchNorm2d::new(0).is_err());
    }

    #[test]
    #[should_panic(expected = "BatchNorm2d::backward called before forward")]
    fn backward_before_forward_panics() {
        BatchNorm2d::new(2)
            .unwrap()
            .backward(&Tensor::ones(&[1, 2, 1, 1]));
    }

    #[test]
    fn buffer_reuse_is_bit_identical_and_allocation_free() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let x = Tensor::from_fn(&[3, 2, 4, 4], |i| ((i * 13 % 11) as f32 - 5.0) * 0.2);
        let g = Tensor::from_fn(&[3, 2, 4, 4], |i| ((i * 7 % 5) as f32 - 2.0) * 0.1);
        // Same fresh-state forward/backward twice: identical bits. (The
        // layer is stateful through running statistics, so compare two
        // instances instead of repeated calls on one.)
        let mut bn2 = BatchNorm2d::new(2).unwrap();
        let (y1, dx1) = (bn.forward(&x, Mode::Train), bn.backward(&g));
        let (y2, dx2) = (bn2.forward(&x, Mode::Train), bn2.backward(&g));
        assert_eq!(y1, y2);
        assert_eq!(dx1, dx2);
        // Once warmed, repeated passes must not grow any buffer.
        let warmed = bn.buffer_capacity();
        for _ in 0..3 {
            bn.forward(&x, Mode::Train);
            bn.backward(&g);
            assert_eq!(bn.buffer_capacity(), warmed);
        }
    }
}
