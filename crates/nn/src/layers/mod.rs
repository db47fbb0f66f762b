//! Differentiable layer implementations.
//!
//! Every layer implements the object-safe [`Layer`](crate::Layer) trait:
//! `forward` caches what `backward_into` needs, and `backward_into`
//! returns the gradient with respect to the layer input and accumulates
//! parameter gradients, skipping whichever of the two its
//! [`Backward`](crate::Backward) argument excludes. Each layer runs one
//! body for every `Backward`, so the gradients it computes agree bit for
//! bit across them. Gradient correctness of each layer is checked against
//! finite differences in its unit tests.

mod activations;
mod batchnorm;
mod blocks;
mod conv;
mod flatten;
mod linear;
mod pool;

pub use activations::{Relu, Relu6, Sigmoid, Silu};
pub use batchnorm::BatchNorm2d;
pub use blocks::{mb_conv, InvertedResidual, MbConv, ResidualBlock, SqueezeExcite};
pub use conv::{Conv2d, DepthwiseConv2d};
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::{GlobalAvgPool, MaxPool2d};

use reveil_tensor::Tensor;

/// Resizes a reusable buffer without pre-filling (every consumer overwrites
/// its full active region), asserting in debug builds that a buffer with
/// sufficient capacity is never reallocated — the invariant that keeps the
/// layer hot loops allocation-free once warmed up.
pub(crate) fn resize_buffer(t: &mut Tensor, shape: &[usize]) {
    #[cfg(debug_assertions)]
    let (cap_before, fits) = (
        t.capacity(),
        shape.iter().product::<usize>() <= t.capacity(),
    );
    t.resize_for_overwrite(shape);
    #[cfg(debug_assertions)]
    debug_assert!(
        !fits || t.capacity() == cap_before,
        "layer buffer reallocated despite sufficient capacity"
    );
}

/// Panics with the shared "backward before forward" diagnostic every layer
/// uses, so misuse of the backward pass reads the same everywhere.
pub(crate) fn backward_before_forward(layer: &'static str) -> ! {
    panic!("{layer}::backward called before forward — no saved activation to differentiate")
}

/// Panics unless the incoming gradient matches the shape of the last
/// forward output — the shared "shape drift" diagnostic of every layer's
/// backward pass.
pub(crate) fn check_backward_shape(layer: &'static str, expected: &[usize], got: &[usize]) {
    assert!(
        got == expected,
        "{layer}::backward: gradient shape {got:?} does not match the last forward \
         output {expected:?} — backward before forward, or shape drift between passes"
    );
}

/// Destructures an `[n, c, h, w]` input or panics with the shared
/// rank-diagnostic message style.
pub(crate) fn expect_nchw(layer: &'static str, input: &Tensor) -> (usize, usize, usize, usize) {
    let &[n, c, h, w] = input.shape() else {
        panic!(
            "{layer}::forward expects an [n, c, h, w] input, got shape {:?}",
            input.shape()
        );
    };
    (n, c, h, w)
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by the layer tests.

    use crate::{Layer, Mode};
    use reveil_tensor::Tensor;

    /// Verifies `layer.backward` against central finite differences of the
    /// scalar objective `sum(forward(x) * weights)`.
    ///
    /// `weights` fixes a random linear functional of the output so the check
    /// exercises every output element; `tol` is the max absolute deviation.
    pub fn check_input_gradient(layer: &mut dyn Layer, input: &Tensor, mode: Mode, tol: f32) {
        let out = layer.forward(input, mode);
        let weights = Tensor::from_fn(out.shape(), |i| ((i * 37 % 11) as f32 - 5.0) * 0.1);
        let analytic = layer.backward(&weights);

        let eps = 1e-3f32;
        for probe in pick_probes(input.len()) {
            let mut plus = input.clone();
            plus.data_mut()[probe] += eps;
            let mut minus = input.clone();
            minus.data_mut()[probe] -= eps;
            let f_plus: f32 = layer
                .forward(&plus, mode)
                .data()
                .iter()
                .zip(weights.data())
                .map(|(a, b)| a * b)
                .sum();
            let f_minus: f32 = layer
                .forward(&minus, mode)
                .data()
                .iter()
                .zip(weights.data())
                .map(|(a, b)| a * b)
                .sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let got = analytic.data()[probe];
            assert!(
                (numeric - got).abs() < tol,
                "input grad mismatch at {probe}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    /// Verifies parameter gradients of `layer` by the same scheme.
    pub fn check_param_gradients(layer: &mut dyn Layer, input: &Tensor, mode: Mode, tol: f32) {
        let out = layer.forward(input, mode);
        let weights = Tensor::from_fn(out.shape(), |i| ((i * 53 % 13) as f32 - 6.0) * 0.1);
        layer.visit_params(&mut |p| p.zero_grad());
        let _ = layer.backward(&weights);

        // Snapshot analytic gradients.
        let mut grads: Vec<Vec<f32>> = Vec::new();
        layer.visit_params(&mut |p| grads.push(p.grad().data().to_vec()));

        let eps = 1e-3f32;
        for (param_idx, grad) in grads.iter().enumerate() {
            for probe in pick_probes(grad.len()) {
                let objective = |layer: &mut dyn Layer, delta: f32| -> f32 {
                    let mut k = 0;
                    layer.visit_params(&mut |p| {
                        if k == param_idx {
                            p.value_mut().data_mut()[probe] += delta;
                        }
                        k += 1;
                    });
                    let val: f32 = layer
                        .forward(input, mode)
                        .data()
                        .iter()
                        .zip(weights.data())
                        .map(|(a, b)| a * b)
                        .sum();
                    let mut k = 0;
                    layer.visit_params(&mut |p| {
                        if k == param_idx {
                            p.value_mut().data_mut()[probe] -= delta;
                        }
                        k += 1;
                    });
                    val
                };
                let numeric = (objective(layer, eps) - objective(layer, -eps)) / (2.0 * eps);
                let got = grad[probe];
                assert!(
                    (numeric - got).abs() < tol,
                    "param {param_idx} grad mismatch at {probe}: numeric {numeric} vs analytic {got}"
                );
            }
        }
    }

    fn pick_probes(len: usize) -> Vec<usize> {
        // A handful of deterministic probe positions keeps the O(len) cost
        // of finite differencing bounded on larger layers.
        let mut probes = vec![0, len / 3, len / 2, 2 * len / 3, len.saturating_sub(1)];
        probes.dedup();
        probes.retain(|&p| p < len);
        probes
    }
}
