//! Pooling layers: 2×2 max pooling and global average pooling.

use reveil_tensor::Tensor;

use crate::layers::{backward_before_forward, check_backward_shape, expect_nchw, resize_buffer};
use crate::{Backward, Layer, Mode, NnError, Param};

/// Max pooling over non-overlapping square windows.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    size: usize,
    input_shape: Vec<usize>,
    ready: bool,
    /// Flat input index of the winner for each output element.
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with `size × size` windows and stride
    /// `size`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `size` is zero.
    pub fn new(size: usize) -> Result<Self, NnError> {
        if size == 0 {
            return Err(NnError::InvalidConfig {
                what: "MaxPool2d",
                message: "window size must be positive".to_string(),
            });
        }
        Ok(Self {
            size,
            input_shape: Vec::new(),
            ready: false,
            argmax: Vec::new(),
        })
    }
}

impl Layer for MaxPool2d {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, out: &mut Tensor) {
        let (n, c, h, w) = expect_nchw("MaxPool2d", input);
        let k = self.size;
        assert!(
            h % k == 0 && w % k == 0,
            "MaxPool2d::forward: spatial dims {h}x{w} must be divisible by the {k}x{k} window \
             — pad or crop the input at construction time"
        );
        let (oh, ow) = (h / k, w / k);
        self.input_shape.clear();
        self.input_shape.extend_from_slice(input.shape());
        self.ready = true;
        resize_buffer(out, &[n, c, oh, ow]);
        self.argmax.clear();
        self.argmax.resize(n * c * oh * ow, 0);
        let src = input.data();
        let dst = out.data_mut();

        for img in 0..n {
            for ch in 0..c {
                let plane = (img * c + ch) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best_idx = plane + (oy * k) * w + ox * k;
                        let mut best = src[best_idx];
                        for dy in 0..k {
                            for dx in 0..k {
                                let idx = plane + (oy * k + dy) * w + (ox * k + dx);
                                if src[idx] > best {
                                    best = src[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let out_idx = ((img * c + ch) * oh + oy) * ow + ox;
                        dst[out_idx] = best;
                        self.argmax[out_idx] = best_idx;
                    }
                }
            }
        }
    }

    fn backward_into(&mut self, grad_output: &Tensor, _grads: Backward, grad_input: &mut Tensor) {
        if !self.ready {
            backward_before_forward("MaxPool2d");
        }
        assert_eq!(
            grad_output.len(),
            self.argmax.len(),
            "MaxPool2d::backward: gradient has {} elements but the last forward produced {} \
             — backward before forward, or shape drift between passes",
            grad_output.len(),
            self.argmax.len()
        );
        resize_buffer(grad_input, &self.input_shape);
        grad_input.fill_zero();
        let gi = grad_input.data_mut();
        for (out_idx, &in_idx) in self.argmax.iter().enumerate() {
            gi[in_idx] += grad_output.data()[out_idx];
        }
    }

    fn buffer_capacity(&self) -> usize {
        self.argmax.capacity()
    }

    fn release_buffers(&mut self) {
        self.argmax = Vec::new();
        self.input_shape = Vec::new();
        self.ready = false;
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "maxpool2d"
    }
}

/// Global average pooling: `[n, c, h, w] → [n, c]`.
#[derive(Debug, Default, Clone)]
pub struct GlobalAvgPool {
    input_shape: Vec<usize>,
    ready: bool,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, out: &mut Tensor) {
        let (n, c, h, w) = expect_nchw("GlobalAvgPool", input);
        self.input_shape.clear();
        self.input_shape.extend_from_slice(input.shape());
        self.ready = true;
        resize_buffer(out, &[n, c]);
        let inv = 1.0 / (h * w) as f32;
        let src = input.data();
        let dst = out.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let plane = (img * c + ch) * h * w;
                dst[img * c + ch] = src[plane..plane + h * w].iter().sum::<f32>() * inv;
            }
        }
    }

    fn backward_into(&mut self, grad_output: &Tensor, _grads: Backward, grad_input: &mut Tensor) {
        if !self.ready {
            backward_before_forward("GlobalAvgPool");
        }
        let (n, c, h, w) = (
            self.input_shape[0],
            self.input_shape[1],
            self.input_shape[2],
            self.input_shape[3],
        );
        check_backward_shape("GlobalAvgPool", &[n, c], grad_output.shape());
        let inv = 1.0 / (h * w) as f32;
        resize_buffer(grad_input, &self.input_shape);
        let gi = grad_input.data_mut();
        for img in 0..n {
            for ch in 0..c {
                let g = grad_output.data()[img * c + ch] * inv;
                let plane = (img * c + ch) * h * w;
                for v in &mut gi[plane..plane + h * w] {
                    *v = g;
                }
            }
        }
    }

    fn release_buffers(&mut self) {
        self.input_shape = Vec::new();
        self.ready = false;
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "global_avg_pool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    #[test]
    fn maxpool_picks_window_maxima() {
        let mut pool = MaxPool2d::new(2).unwrap();
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_winner() {
        let mut pool = MaxPool2d::new(2).unwrap();
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 9.0, 3.0, 4.0]).unwrap();
        pool.forward(&x, Mode::Train);
        let g = pool.backward(&Tensor::ones(&[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_gradient_matches_finite_difference() {
        // Distinct values prevent argmax flips under the probe epsilon.
        let x = Tensor::from_fn(&[2, 2, 4, 4], |i| (i as f32) * 0.37);
        let mut pool = MaxPool2d::new(2).unwrap();
        gradcheck::check_input_gradient(&mut pool, &x, Mode::Train, 1e-2);
    }

    #[test]
    fn maxpool_rejects_zero_window() {
        assert!(MaxPool2d::new(0).is_err());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn maxpool_requires_divisible_dims() {
        let mut pool = MaxPool2d::new(2).unwrap();
        pool.forward(&Tensor::zeros(&[1, 1, 3, 3]), Mode::Train);
    }

    #[test]
    #[should_panic(expected = "expects an [n, c, h, w] input")]
    fn maxpool_rejects_wrong_rank_with_structured_message() {
        let mut pool = MaxPool2d::new(2).unwrap();
        pool.forward(&Tensor::zeros(&[4, 4]), Mode::Train);
    }

    #[test]
    #[should_panic(expected = "MaxPool2d::backward called before forward")]
    fn maxpool_backward_before_forward_panics() {
        MaxPool2d::new(2).unwrap().backward(&Tensor::ones(&[1]));
    }

    #[test]
    fn gap_averages_planes() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let y = gap.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[1.5, 5.5]);
    }

    #[test]
    fn gap_gradient_matches_finite_difference() {
        let x = Tensor::from_fn(&[2, 3, 3, 3], |i| ((i * 7 % 5) as f32) * 0.2);
        gradcheck::check_input_gradient(&mut GlobalAvgPool::new(), &x, Mode::Train, 1e-2);
    }
}
