//! 2-D batch normalisation.

use reveil_tensor::Tensor;

use crate::layers::{backward_before_forward, check_backward_shape, expect_nchw, resize_buffer};
use crate::{Layer, Mode, NnError, Param};

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
    /// Per-channel dγ / dβ accumulators (backward scratch).
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
                for img in 0..n {
                    for (ch, acc) in self.mean.iter_mut().enumerate() {
                        let base = (img * c + ch) * plane;
                        *acc += input.data()[base..base + plane].iter().sum::<f32>();
                    }
                }
                for v in &mut self.mean {
                    *v /= m;
                }
                for img in 0..n {
                    for ch in 0..c {
                        let base = (img * c + ch) * plane;
                        self.var[ch] += input.data()[base..base + plane]
                            .iter()
                            .map(|&x| (x - self.mean[ch]) * (x - self.mean[ch]))
                            .sum::<f32>();
                    }
                }
                for v in &mut self.var {
                    *v /= m;
                }
                self.inv_std.clear();
                self.inv_std
                    .extend(self.var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()));

                for img in 0..n {
                    for ch in 0..c {
                        let base = (img * c + ch) * plane;
                        let (mu, is, g, b) = (self.mean[ch], self.inv_std[ch], gamma[ch], beta[ch]);
                        for i in base..base + plane {
                            let xh = (input.data()[i] - mu) * is;
                            self.x_hat.data_mut()[i] = xh;
                            out.data_mut()[i] = g * xh + b;
                        }
                    }
                }
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
                for img in 0..n {
                    for ch in 0..c {
                        let base = (img * c + ch) * plane;
                        let mu = self.running_mean.data()[ch];
                        let (is, g, b) = (self.inv_std[ch], gamma[ch], beta[ch]);
                        for i in base..base + plane {
                            let xh = (input.data()[i] - mu) * is;
                            self.x_hat.data_mut()[i] = xh;
                            out.data_mut()[i] = g * xh + b;
                        }
                    }
                }
            }
        }
        self.input_shape.clear();
        self.input_shape.extend_from_slice(input.shape());
        self.mode = mode;
        self.ready = true;
    }

    fn backward_into(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) {
        if !self.ready {
            backward_before_forward("BatchNorm2d");
        }
        check_backward_shape("BatchNorm2d", &self.input_shape, grad_output.shape());
        let (n, c, h, w) = (
            self.input_shape[0],
            self.input_shape[1],
            self.input_shape[2],
            self.input_shape[3],
        );
        let plane = h * w;
        let m = (n * plane) as f32;
        resize_buffer(grad_input, grad_output.shape());

        // dγ and dβ are identical in both modes.
        self.dgamma.clear();
        self.dgamma.resize(c, 0.0);
        self.dbeta.clear();
        self.dbeta.resize(c, 0.0);
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * plane;
                for i in base..base + plane {
                    self.dgamma[ch] += grad_output.data()[i] * self.x_hat.data()[i];
                    self.dbeta[ch] += grad_output.data()[i];
                }
            }
        }
        for ch in 0..c {
            self.gamma.grad_mut().data_mut()[ch] += self.dgamma[ch];
            self.beta.grad_mut().data_mut()[ch] += self.dbeta[ch];
        }

        let gamma = self.gamma.value().data();
        match self.mode {
            Mode::Train => {
                // dx = (γ·inv_std / m) · (m·g − Σg − x̂·Σ(g·x̂)) per channel.
                for img in 0..n {
                    for (ch, (&g_ch, &is)) in gamma.iter().zip(&self.inv_std).enumerate() {
                        let base = (img * c + ch) * plane;
                        let coeff = g_ch * is / m;
                        for i in base..base + plane {
                            grad_input.data_mut()[i] = coeff
                                * (m * grad_output.data()[i]
                                    - self.dbeta[ch]
                                    - self.x_hat.data()[i] * self.dgamma[ch]);
                        }
                    }
                }
            }
            Mode::Eval => {
                // Running statistics are constants: dx = g·γ·inv_std.
                for img in 0..n {
                    for (ch, (&g, &is)) in gamma.iter().zip(&self.inv_std).enumerate() {
                        let base = (img * c + ch) * plane;
                        let coeff = g * is;
                        for i in base..base + plane {
                            grad_input.data_mut()[i] = coeff * grad_output.data()[i];
                        }
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
