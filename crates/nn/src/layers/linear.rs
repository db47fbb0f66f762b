//! Fully-connected (affine) layer.

use rand::rngs::StdRng;

use reveil_tensor::ops::{self, Transpose};
use reveil_tensor::{rng, Tensor};

use crate::layers::{backward_before_forward, check_backward_shape, resize_buffer};
use crate::{Backward, Layer, Mode, NnError, Param};

/// Affine map `y = x·Wᵀ + b` over a batch `x: [n, in_features]`.
#[derive(Debug)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    /// Saved copy of the forward input, reused across calls.
    saved_input: Tensor,
    ready: bool,
}

impl Linear {
    /// Creates a linear layer with Kaiming-uniform initialised weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if either feature count is zero.
    pub fn new(
        in_features: usize,
        out_features: usize,
        init_rng: &mut StdRng,
    ) -> Result<Self, NnError> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::InvalidConfig {
                what: "Linear",
                message: format!("features must be positive, got {in_features}x{out_features}"),
            });
        }
        let bound = (6.0 / in_features as f32).sqrt();
        let mut weight = Tensor::zeros(&[out_features, in_features]);
        rng::fill_uniform(&mut weight, -bound, bound, init_rng);
        let bias = Tensor::zeros(&[out_features]);
        Ok(Self {
            weight: Param::new(weight),
            bias: Param::new(bias),
            in_features,
            out_features,
            saved_input: Tensor::default(),
            ready: false,
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight matrix, shape `[out_features, in_features]`.
    pub fn weight(&self) -> &Tensor {
        self.weight.value()
    }
}

impl Layer for Linear {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, out: &mut Tensor) {
        assert_eq!(
            input.shape().last(),
            Some(&self.in_features),
            "Linear expects trailing dim {}, got shape {:?}",
            self.in_features,
            input.shape()
        );
        assert_eq!(input.ndim(), 2, "Linear expects [n, features] input");
        let n = input.shape()[0];
        resize_buffer(&mut self.saved_input, input.shape());
        self.saved_input.data_mut().copy_from_slice(input.data());
        self.ready = true;
        resize_buffer(out, &[n, self.out_features]);
        ops::matmul_into(input, self.weight.value(), Transpose::B, 0.0, out)
            .unwrap_or_else(|e| panic!("{e}"));
        ops::add_row(out, self.bias.value()).unwrap_or_else(|e| panic!("{e}"));
    }

    fn backward_into(&mut self, grad_output: &Tensor, grads: Backward, grad_input: &mut Tensor) {
        if !self.ready {
            backward_before_forward("Linear");
        }
        let n = self.saved_input.shape()[0];
        check_backward_shape("Linear", &[n, self.out_features], grad_output.shape());
        if grads.input() {
            // dx = g·W.
            resize_buffer(grad_input, &[n, self.in_features]);
            ops::matmul_into(
                grad_output,
                self.weight.value(),
                Transpose::Neither,
                0.0,
                grad_input,
            )
            .unwrap_or_else(|e| panic!("{e}"));
        }
        if grads.params() {
            // dW += gᵀ·x via the fused accumulate epilogue (no transient
            // dW tensor, no separate axpy), db += column sums of g
            // (accumulated straight into the bias gradient).
            ops::matmul_into(
                grad_output,
                &self.saved_input,
                Transpose::A,
                1.0,
                self.weight.grad_mut(),
            )
            .unwrap_or_else(|e| panic!("{e}"));
            let db = self.bias.grad_mut().data_mut();
            for row in grad_output.data().chunks(db.len()) {
                for (o, &v) in db.iter_mut().zip(row) {
                    *o += v;
                }
            }
        }
    }

    fn buffer_capacity(&self) -> usize {
        self.saved_input.capacity()
    }

    fn release_buffers(&mut self) {
        self.saved_input = Tensor::default();
        self.ready = false;
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    fn make(in_f: usize, out_f: usize) -> Linear {
        let mut rng = rng::rng_from_seed(42);
        Linear::new(in_f, out_f, &mut rng).unwrap()
    }

    #[test]
    fn rejects_zero_features() {
        let mut rng = rng::rng_from_seed(0);
        assert!(Linear::new(0, 4, &mut rng).is_err());
        assert!(Linear::new(4, 0, &mut rng).is_err());
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut layer = make(3, 2);
        // Zero weights: output equals bias.
        layer.weight.value_mut().fill_zero();
        layer
            .bias
            .value_mut()
            .data_mut()
            .copy_from_slice(&[1.0, -1.0]);
        let x = Tensor::ones(&[4, 3]);
        let y = layer.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[4, 2]);
        for row in y.data().chunks(2) {
            assert_eq!(row, &[1.0, -1.0]);
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut layer = make(5, 3);
        let x = Tensor::from_fn(&[4, 5], |i| ((i * 13 % 7) as f32 - 3.0) * 0.3);
        gradcheck::check_input_gradient(&mut layer, &x, Mode::Train, 1e-2);
    }

    #[test]
    fn param_gradients_match_finite_difference() {
        let mut layer = make(4, 3);
        let x = Tensor::from_fn(&[3, 4], |i| ((i * 11 % 9) as f32 - 4.0) * 0.25);
        gradcheck::check_param_gradients(&mut layer, &x, Mode::Train, 1e-2);
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut layer = make(2, 2);
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        layer.forward(&x, Mode::Train);
        layer.backward(&g);
        let after_one: Vec<f32> = {
            let mut v = vec![];
            layer.visit_params(&mut |p| v.extend_from_slice(p.grad().data()));
            v
        };
        layer.forward(&x, Mode::Train);
        layer.backward(&g);
        let mut after_two = vec![];
        layer.visit_params(&mut |p| after_two.extend_from_slice(p.grad().data()));
        for (a, b) in after_one.iter().zip(&after_two) {
            assert!((b - 2.0 * a).abs() < 1e-5, "gradients must accumulate");
        }
    }

    #[test]
    fn init_is_seed_deterministic() {
        let a = make(8, 8);
        let b = make(8, 8);
        assert_eq!(a.weight().data(), b.weight().data());
    }

    #[test]
    #[should_panic(expected = "Linear::backward called before forward")]
    fn backward_before_forward_panics() {
        make(2, 2).backward(&Tensor::ones(&[1, 2]));
    }

    #[test]
    fn buffer_reuse_is_bit_identical_and_allocation_free() {
        let mut layer = make(6, 4);
        let x = Tensor::from_fn(&[5, 6], |i| ((i * 17 % 13) as f32 - 6.0) * 0.2);
        let g = Tensor::from_fn(&[5, 4], |i| ((i * 11 % 7) as f32 - 3.0) * 0.1);
        let mut out = Tensor::default();
        let mut dx = Tensor::default();
        layer.forward_into(&x, Mode::Train, &mut out);
        layer.backward_into(&g, Backward::Full, &mut dx);
        let (first_out, first_dx) = (out.clone(), dx.clone());
        let warmed = layer.buffer_capacity();
        for _ in 0..3 {
            layer.forward_into(&x, Mode::Train, &mut out);
            layer.backward_into(&g, Backward::Full, &mut dx);
            assert_eq!(out, first_out);
            assert_eq!(dx, first_dx);
            assert_eq!(layer.buffer_capacity(), warmed);
        }
    }
}
