//! Flattening of NCHW feature maps into row vectors.

use reveil_tensor::Tensor;

use crate::layers::{backward_before_forward, check_backward_shape, resize_buffer};
use crate::{Backward, Layer, Mode, Param};

/// Reshapes `[n, c, h, w]` (or any rank ≥ 2) to `[n, c*h*w]`.
#[derive(Debug, Default, Clone)]
pub struct Flatten {
    input_shape: Vec<usize>,
    ready: bool,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, out: &mut Tensor) {
        assert!(
            input.ndim() >= 2,
            "Flatten::forward expects a batched input, got shape {:?}",
            input.shape()
        );
        self.input_shape.clear();
        self.input_shape.extend_from_slice(input.shape());
        self.ready = true;
        let n = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        resize_buffer(out, &[n, rest]);
        out.data_mut().copy_from_slice(input.data());
    }

    fn backward_into(&mut self, grad_output: &Tensor, _grads: Backward, grad_input: &mut Tensor) {
        if !self.ready {
            backward_before_forward("Flatten");
        }
        let n = self.input_shape[0];
        let rest: usize = self.input_shape[1..].iter().product();
        check_backward_shape("Flatten", &[n, rest], grad_output.shape());
        resize_buffer(grad_input, &self.input_shape);
        grad_input.data_mut().copy_from_slice(grad_output.data());
    }

    fn buffer_capacity(&self) -> usize {
        0
    }

    fn release_buffers(&mut self) {
        self.input_shape = Vec::new();
        self.ready = false;
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_shape() {
        let mut flatten = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 4, 5], |i| i as f32);
        let y = flatten.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 60]);
        assert_eq!(y.data(), x.data());
        let g = flatten.backward(&y);
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g.data(), x.data());
    }

    #[test]
    #[should_panic(expected = "Flatten::backward called before forward")]
    fn backward_before_forward_panics() {
        Flatten::new().backward(&Tensor::ones(&[2, 3]));
    }
}
