//! Ordered layer container with pooled boundary buffers.

use reveil_tensor::Tensor;

use crate::layers::resize_buffer;
use crate::{Backward, Layer, Mode, Param};

/// A chain of layers applied in order.
///
/// `Sequential` itself implements [`Layer`], so chains nest (residual blocks
/// hold `Sequential` bodies).
///
/// Activations and gradients ping-pong through one persistent boundary
/// buffer per interior layer boundary: layer `i` writes its output into the
/// chain's `i`-th buffer and layer `i+1` reads it back, so a warmed-up
/// forward/backward pass allocates nothing — only the chain's final output
/// goes into the caller-provided tensor.
///
/// The same buffers expose the interior of the last pass:
/// [`Sequential::boundary_outputs`] and [`Sequential::boundary_grads`] pair
/// each interior activation with its gradient (GradCAM), and Beatrix reads
/// spatial activations from the forward side.
///
/// Every [`Backward`] runs one chain and fills the gradient buffers
/// identically. The first layer runs the [`Backward`] the chain was asked
/// for, and every later one the same with its input gradient
/// ([`Backward::ParamsOnly`] becomes [`Backward::Full`]), because each
/// later layer's input gradient is the gradient the layer before it
/// reads.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Per-boundary forward buffers: `fwd_bufs[i]` holds layer `i`'s output
    /// (the last layer writes into the caller's tensor instead).
    fwd_bufs: Vec<Tensor>,
    /// Per-boundary backward buffers: `bwd_bufs[i]` holds the gradient
    /// flowing into layer `i+1` (i.e. out of layer `i+1`'s backward).
    bwd_bufs: Vec<Tensor>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential")
            .field("layers", &names)
            .finish()
    }
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain contains no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The pooled layer-boundary outputs of the last forward pass:
    /// `boundary_outputs()[i]` is layer `i`'s output for `i < len − 1` (the
    /// final layer writes the caller's `out` tensor instead).
    pub fn boundary_outputs(&self) -> &[Tensor] {
        &self.fwd_bufs
    }

    /// The pooled layer-boundary gradients of the last backward pass
    /// (any [`Backward`]), indexed like
    /// [`Sequential::boundary_outputs`]: `boundary_grads()[i]` is the
    /// gradient with respect to layer `i`'s output.
    pub fn boundary_grads(&self) -> &[Tensor] {
        &self.bwd_bufs
    }

    /// Grows a boundary-buffer vector to `len` entries (existing buffers
    /// keep their allocations).
    fn ensure_bufs(bufs: &mut Vec<Tensor>, len: usize) {
        if bufs.len() < len {
            bufs.resize_with(len, Tensor::default);
        }
    }
}

impl Layer for Sequential {
    fn forward_into(&mut self, input: &Tensor, mode: Mode, out: &mut Tensor) {
        let n = self.layers.len();
        if n == 0 {
            resize_buffer(out, input.shape());
            out.data_mut().copy_from_slice(input.data());
            return;
        }
        Self::ensure_bufs(&mut self.fwd_bufs, n.saturating_sub(1));
        for i in 0..n {
            let (prev, rest) = self.fwd_bufs.split_at_mut(i);
            let src: &Tensor = if i == 0 { input } else { &prev[i - 1] };
            let dst: &mut Tensor = if i == n - 1 { &mut *out } else { &mut rest[0] };
            self.layers[i].forward_into(src, mode, dst);
        }
    }

    fn backward_into(&mut self, grad_output: &Tensor, grads: Backward, grad_input: &mut Tensor) {
        let n = self.layers.len();
        if n == 0 {
            resize_buffer(grad_input, grad_output.shape());
            grad_input.data_mut().copy_from_slice(grad_output.data());
            return;
        }
        Self::ensure_bufs(&mut self.bwd_bufs, n.saturating_sub(1));
        for i in (0..n).rev() {
            let (prev, rest) = self.bwd_bufs.split_at_mut(i);
            let src: &Tensor = if i == n - 1 { grad_output } else { &rest[0] };
            let dst: &mut Tensor = if i == 0 {
                &mut *grad_input
            } else {
                &mut prev[i - 1]
            };
            // Every later layer's input gradient feeds the layer before it.
            let grads = if i == 0 { grads } else { grads.with_input() };
            self.layers[i].backward_into(src, grads, dst);
        }
    }

    fn buffer_capacity(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.buffer_capacity())
            .chain(self.fwd_bufs.iter().map(Tensor::capacity))
            .chain(self.bwd_bufs.iter().map(Tensor::capacity))
            .sum()
    }

    fn release_buffers(&mut self) {
        for layer in &mut self.layers {
            layer.release_buffers();
        }
        self.fwd_bufs = Vec::new();
        self.bwd_bufs = Vec::new();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_state(f);
        }
    }

    fn name(&self) -> &'static str {
        "sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use reveil_tensor::rng;

    fn two_layer() -> Sequential {
        let mut r = rng::rng_from_seed(3);
        Sequential::new()
            .push(Linear::new(4, 8, &mut r).unwrap())
            .push(Relu::new())
            .push(Linear::new(8, 2, &mut r).unwrap())
    }

    #[test]
    fn forward_chains_layers() {
        let mut net = two_layer();
        let x = Tensor::ones(&[3, 4]);
        let y = net.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }

    #[test]
    fn boundary_accessors_pair_interior_outputs_with_their_grads() {
        let mut r = rng::rng_from_seed(3);
        let mut first = Linear::new(4, 8, &mut r).unwrap();
        let mut relu = Relu::new();
        let mut last = Linear::new(8, 2, &mut r).unwrap();
        let mut net = two_layer();
        let x = Tensor::from_fn(&[2, 4], |i| i as f32 * 0.25 - 0.8);
        let h1 = first.forward(&x, Mode::Train);
        let h2 = relu.forward(&h1, Mode::Train);
        let y = net.forward(&x, Mode::Train);
        assert_eq!(y, last.forward(&h2, Mode::Train));
        assert_eq!(net.boundary_outputs(), &[h1, h2]);

        let g = Tensor::from_fn(y.shape(), |i| 1.0 - i as f32 * 0.3);
        net.backward(&g);
        let g2 = last.backward(&g);
        let g1 = relu.backward(&g2);
        assert_eq!(net.boundary_grads(), &[g1, g2]);
    }

    #[test]
    fn backward_matches_composed_layers() {
        // Gradient through sequential == gradient through manual chain.
        let mut r = rng::rng_from_seed(5);
        let mut a = Linear::new(3, 3, &mut r).unwrap();
        let mut r2 = rng::rng_from_seed(5);
        let mut chain = Sequential::new().push(Linear::new(3, 3, &mut r2).unwrap());

        let x = Tensor::from_fn(&[2, 3], |i| i as f32 * 0.5);
        let g = Tensor::ones(&[2, 3]);
        let y1 = a.forward(&x, Mode::Train);
        let y2 = chain.forward(&x, Mode::Train);
        assert_eq!(y1, y2);
        assert_eq!(a.backward(&g), chain.backward(&g));
    }

    #[test]
    fn visit_params_counts_all_layers() {
        let mut net = two_layer();
        let mut count = 0;
        net.visit_params(&mut |_| count += 1);
        assert_eq!(count, 4, "two linear layers x (weight, bias)");
    }

    #[test]
    fn debug_lists_layer_names() {
        let net = two_layer();
        let dbg = format!("{net:?}");
        assert!(dbg.contains("linear"));
        assert!(dbg.contains("relu"));
    }

    #[test]
    fn empty_chain_is_identity() {
        let mut net = Sequential::new();
        let x = Tensor::from_fn(&[2, 3], |i| i as f32);
        assert_eq!(net.forward(&x, Mode::Eval), x);
        assert_eq!(net.backward(&x), x);
    }

    #[test]
    fn boundary_buffers_do_not_grow_once_warmed() {
        let mut net = two_layer();
        let x = Tensor::ones(&[3, 4]);
        let mut out = Tensor::default();
        let mut dx = Tensor::default();
        net.forward_into(&x, Mode::Train, &mut out);
        let g = Tensor::ones(out.shape());
        net.backward_into(&g, Backward::Full, &mut dx);
        let warmed = net.buffer_capacity();
        for _ in 0..3 {
            net.forward_into(&x, Mode::Train, &mut out);
            net.backward_into(&g, Backward::Full, &mut dx);
            assert_eq!(net.buffer_capacity(), warmed);
        }
    }
}
