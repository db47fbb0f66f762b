//! Pointwise activation layers: ReLU, ReLU6, SiLU and Sigmoid.
//!
//! Every activation keeps what its derivative needs in reusable buffers
//! between forward and backward: a 0/1 gradient mask for the ReLU family
//! (computed in the same pass that writes the output, so the input is
//! never cloned), a saved copy of the output for Sigmoid, and both x and
//! σ(x) for SiLU, so that its backward takes no second `exp`. Both passes
//! are allocation-free once warmed up.

use reveil_tensor::math::sigmoid;
use reveil_tensor::Tensor;

use crate::layers::{backward_before_forward, check_backward_shape, resize_buffer};
use crate::{Backward, Layer, Mode, Param};

/// Rectified linear unit, `y = max(x, 0)`.
#[derive(Debug, Default, Clone)]
pub struct Relu {
    /// 1.0 where the input was positive, 0.0 elsewhere.
    mask: Tensor,
    ready: bool,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, out: &mut Tensor) {
        resize_buffer(out, input.shape());
        resize_buffer(&mut self.mask, input.shape());
        let dst = out.data_mut();
        let mask = self.mask.data_mut();
        for ((o, m), &x) in dst.iter_mut().zip(mask.iter_mut()).zip(input.data()) {
            *o = x.max(0.0);
            *m = if x > 0.0 { 1.0 } else { 0.0 };
        }
        self.ready = true;
    }

    fn backward_into(&mut self, grad_output: &Tensor, _grads: Backward, grad_input: &mut Tensor) {
        if !self.ready {
            backward_before_forward("Relu");
        }
        check_backward_shape("Relu", self.mask.shape(), grad_output.shape());
        resize_buffer(grad_input, grad_output.shape());
        let dst = grad_input.data_mut();
        for ((gi, &m), &g) in dst.iter_mut().zip(self.mask.data()).zip(grad_output.data()) {
            *gi = if m != 0.0 { g } else { 0.0 };
        }
    }

    fn buffer_capacity(&self) -> usize {
        self.mask.capacity()
    }

    fn release_buffers(&mut self) {
        self.mask = Tensor::default();
        self.ready = false;
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// ReLU capped at 6, `y = min(max(x, 0), 6)` — MobileNetV2's activation.
#[derive(Debug, Default, Clone)]
pub struct Relu6 {
    /// 1.0 in the linear region `0 < x < 6`, 0.0 in both saturations.
    mask: Tensor,
    ready: bool,
}

impl Relu6 {
    /// Creates a ReLU6 layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu6 {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, out: &mut Tensor) {
        resize_buffer(out, input.shape());
        resize_buffer(&mut self.mask, input.shape());
        let dst = out.data_mut();
        let mask = self.mask.data_mut();
        for ((o, m), &x) in dst.iter_mut().zip(mask.iter_mut()).zip(input.data()) {
            *o = x.clamp(0.0, 6.0);
            *m = if x > 0.0 && x < 6.0 { 1.0 } else { 0.0 };
        }
        self.ready = true;
    }

    fn backward_into(&mut self, grad_output: &Tensor, _grads: Backward, grad_input: &mut Tensor) {
        if !self.ready {
            backward_before_forward("Relu6");
        }
        check_backward_shape("Relu6", self.mask.shape(), grad_output.shape());
        resize_buffer(grad_input, grad_output.shape());
        let dst = grad_input.data_mut();
        for ((gi, &m), &g) in dst.iter_mut().zip(self.mask.data()).zip(grad_output.data()) {
            *gi = if m != 0.0 { g } else { 0.0 };
        }
    }

    fn buffer_capacity(&self) -> usize {
        self.mask.capacity()
    }

    fn release_buffers(&mut self) {
        self.mask = Tensor::default();
        self.ready = false;
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "relu6"
    }
}

/// SiLU's forward sweep: `out = x·σ(x)`, saving x and σ(x). The slices
/// are distinct arguments, so the compiler knows they do not overlap and
/// vectorizes the loop, [`sigmoid`] included.
fn silu_forward(x: &[f32], saved_x: &mut [f32], saved_s: &mut [f32], out: &mut [f32]) {
    let saved = saved_x.iter_mut().zip(saved_s);
    for ((o, (saved_x, saved_s)), &x) in out.iter_mut().zip(saved).zip(x) {
        let s = sigmoid(x);
        *saved_x = x;
        *saved_s = s;
        *o = x * s;
    }
}

/// Sigmoid-weighted linear unit (swish), `y = x·σ(x)` — EfficientNet's
/// activation.
#[derive(Debug, Default, Clone)]
pub struct Silu {
    /// Saved copy of the forward input (the derivative needs `x` itself).
    saved_input: Tensor,
    /// σ(x) of the forward pass, which the derivative reads instead of
    /// computing it again.
    saved_sigmoid: Tensor,
    ready: bool,
}

impl Silu {
    /// Creates a SiLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Silu {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, out: &mut Tensor) {
        resize_buffer(out, input.shape());
        resize_buffer(&mut self.saved_input, input.shape());
        resize_buffer(&mut self.saved_sigmoid, input.shape());
        silu_forward(
            input.data(),
            self.saved_input.data_mut(),
            self.saved_sigmoid.data_mut(),
            out.data_mut(),
        );
        self.ready = true;
    }

    fn backward_into(&mut self, grad_output: &Tensor, _grads: Backward, grad_input: &mut Tensor) {
        if !self.ready {
            backward_before_forward("Silu");
        }
        check_backward_shape("Silu", self.saved_input.shape(), grad_output.shape());
        resize_buffer(grad_input, grad_output.shape());
        let saved = self
            .saved_input
            .data()
            .iter()
            .zip(self.saved_sigmoid.data());
        let dst = grad_input.data_mut();
        for ((gi, (&x, &s)), &g) in dst.iter_mut().zip(saved).zip(grad_output.data()) {
            *gi = g * (s + x * s * (1.0 - s));
        }
    }

    fn buffer_capacity(&self) -> usize {
        self.saved_input.capacity() + self.saved_sigmoid.capacity()
    }

    fn release_buffers(&mut self) {
        self.saved_input = Tensor::default();
        self.saved_sigmoid = Tensor::default();
        self.ready = false;
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "silu"
    }
}

/// Logistic sigmoid, `y = 1 / (1 + e^{-x})`.
#[derive(Debug, Default, Clone)]
pub struct Sigmoid {
    /// Saved copy of the forward output (the derivative is `y(1-y)`).
    saved_output: Tensor,
    ready: bool,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, out: &mut Tensor) {
        resize_buffer(out, input.shape());
        for (o, &x) in out.data_mut().iter_mut().zip(input.data()) {
            *o = sigmoid(x);
        }
        resize_buffer(&mut self.saved_output, input.shape());
        self.saved_output.data_mut().copy_from_slice(out.data());
        self.ready = true;
    }

    fn backward_into(&mut self, grad_output: &Tensor, _grads: Backward, grad_input: &mut Tensor) {
        if !self.ready {
            backward_before_forward("Sigmoid");
        }
        check_backward_shape("Sigmoid", self.saved_output.shape(), grad_output.shape());
        resize_buffer(grad_input, grad_output.shape());
        let dst = grad_input.data_mut();
        for ((gi, &y), &g) in dst
            .iter_mut()
            .zip(self.saved_output.data())
            .zip(grad_output.data())
        {
            *gi = g * y * (1.0 - y);
        }
    }

    fn buffer_capacity(&self) -> usize {
        self.saved_output.capacity()
    }

    fn release_buffers(&mut self) {
        self.saved_output = Tensor::default();
        self.ready = false;
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "sigmoid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    fn probe_input() -> Tensor {
        // Offset keeps probes away from the ReLU kink at exactly 0.
        Tensor::from_fn(&[2, 3, 4], |i| ((i * 17 % 13) as f32 - 6.0) * 0.5 + 0.07)
    }

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut relu = Relu::new();
        let out = relu.forward(&probe_input(), Mode::Train);
        assert!(out.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn relu_gradient_matches_finite_difference() {
        gradcheck::check_input_gradient(&mut Relu::new(), &probe_input(), Mode::Train, 1e-2);
    }

    #[test]
    fn relu6_saturates_both_sides() {
        let mut relu6 = Relu6::new();
        let input = Tensor::from_vec(vec![3], vec![-1.0, 3.0, 10.0]).unwrap();
        let out = relu6.forward(&input, Mode::Train);
        assert_eq!(out.data(), &[0.0, 3.0, 6.0]);
        // Gradient is zero in both saturated regions.
        let g = relu6.backward(&Tensor::ones(&[3]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn relu6_gradient_matches_finite_difference() {
        gradcheck::check_input_gradient(&mut Relu6::new(), &probe_input(), Mode::Train, 1e-2);
    }

    #[test]
    fn silu_gradient_matches_finite_difference() {
        gradcheck::check_input_gradient(&mut Silu::new(), &probe_input(), Mode::Train, 1e-2);
    }

    #[test]
    fn sigmoid_gradient_matches_finite_difference() {
        gradcheck::check_input_gradient(&mut Sigmoid::new(), &probe_input(), Mode::Train, 1e-2);
    }

    #[test]
    fn sigmoid_range() {
        let mut s = Sigmoid::new();
        let out = s.forward(&probe_input(), Mode::Eval);
        assert!(out.data().iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn activations_have_no_params() {
        let mut count = 0;
        Relu::new().visit_params(&mut |_| count += 1);
        Silu::new().visit_params(&mut |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics_with_shared_message() {
        Relu::new().backward(&Tensor::ones(&[3]));
    }

    #[test]
    #[should_panic(expected = "shape drift")]
    fn backward_shape_mismatch_panics_with_shared_message() {
        let mut silu = Silu::new();
        silu.forward(&probe_input(), Mode::Train);
        silu.backward(&Tensor::ones(&[5]));
    }

    #[test]
    fn forward_into_reuse_is_bit_identical_and_allocation_free() {
        let x = probe_input();
        let g = Tensor::from_fn(&[2, 3, 4], |i| ((i * 7 % 5) as f32 - 2.0) * 0.3);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Relu::new()),
            Box::new(Relu6::new()),
            Box::new(Silu::new()),
            Box::new(Sigmoid::new()),
        ];
        for mut layer in layers {
            let mut out = Tensor::default();
            let mut grad = Tensor::default();
            layer.forward_into(&x, Mode::Train, &mut out);
            layer.backward_into(&g, Backward::Full, &mut grad);
            let (first_out, first_grad) = (out.clone(), grad.clone());
            let warmed = layer.buffer_capacity();
            for _ in 0..3 {
                layer.forward_into(&x, Mode::Train, &mut out);
                layer.backward_into(&g, Backward::Full, &mut grad);
                assert_eq!(out, first_out, "{} forward drifted", layer.name());
                assert_eq!(grad, first_grad, "{} backward drifted", layer.name());
                assert_eq!(
                    layer.buffer_capacity(),
                    warmed,
                    "{} buffers must not grow once warmed",
                    layer.name()
                );
            }
        }
    }
}
