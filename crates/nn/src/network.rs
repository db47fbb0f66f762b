//! Backbone + head network container with state checkpointing.

use reveil_tensor::Tensor;

use crate::{Layer, Mode, NnError, Param, Sequential};

/// A classifier split into a feature-extracting `backbone` (ending in global
/// pooling, output `[n, d]`) and a classification `head` (output
/// `[n, classes]`).
///
/// The split exists because the paper's defenses consume different cuts of
/// the model: Beatrix reads spatial backbone activations
/// ([`Network::features_into`] + [`Network::backbone_boundary_outputs`]),
/// GradCAM pairs them with their gradients
/// ([`Network::backbone_boundary_grads`]), and Neural Cleanse needs input
/// gradients ([`Network::backward_to_input_into`]).
pub struct Network {
    backbone: Sequential,
    head: Sequential,
    num_classes: usize,
    input_shape: (usize, usize, usize),
    family: &'static str,
    /// Reusable backbone-output buffer (forward hot path).
    features_buf: Tensor,
    /// Reusable feature-gradient buffer (backward hot path).
    grad_features_buf: Tensor,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("family", &self.family)
            .field("input_shape", &self.input_shape)
            .field("num_classes", &self.num_classes)
            .finish()
    }
}

impl Network {
    /// Assembles a network from a backbone and a head.
    ///
    /// `input_shape` is `(channels, height, width)` of a single image.
    pub fn new(
        backbone: Sequential,
        head: Sequential,
        input_shape: (usize, usize, usize),
        num_classes: usize,
        family: &'static str,
    ) -> Self {
        Self {
            backbone,
            head,
            num_classes,
            input_shape,
            family,
            features_buf: Tensor::default(),
            grad_features_buf: Tensor::default(),
        }
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Expected single-image input shape `(c, h, w)`.
    pub fn input_shape(&self) -> (usize, usize, usize) {
        self.input_shape
    }

    /// Model family label (e.g. `"resnet_tiny"`).
    pub fn family(&self) -> &'static str {
        self.family
    }

    /// Full forward pass: `[n, c, h, w] → [n, classes]` logits.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut logits = Tensor::default();
        self.forward_into(input, mode, &mut logits);
        logits
    }

    /// Full forward pass into a caller-provided logits tensor, reusing its
    /// allocation and the network's internal feature buffer — together with
    /// [`Network::backward_to_input_into`] this is the zero-allocation
    /// training-step path (see the [`Layer`] buffer-reuse contract).
    pub fn forward_into(&mut self, input: &Tensor, mode: Mode, logits: &mut Tensor) {
        self.backbone
            .forward_into(input, mode, &mut self.features_buf);
        self.head.forward_into(&self.features_buf, mode, logits);
    }

    /// Eval-mode forward pass into a caller-provided logits tensor: the
    /// pooled inference path for defense audits. Identical to
    /// [`Network::forward_into`] with [`Mode::Eval`] — zero heap
    /// allocations once warmed up, bit-identical to the allocating
    /// [`Network::forward`] wrapper.
    pub fn infer_into(&mut self, input: &Tensor, logits: &mut Tensor) {
        self.forward_into(input, Mode::Eval, logits);
    }

    /// Backbone features only: `[n, c, h, w] → [n, d]`.
    pub fn features(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut out = Tensor::default();
        self.features_into(input, mode, &mut out);
        out
    }

    /// Backbone features into a caller-provided tensor, reusing its
    /// allocation (the zero-allocation counterpart of
    /// [`Network::features`]). After this call
    /// [`Network::backbone_boundary_outputs`] exposes the interior layer
    /// outputs of the same pass.
    pub fn features_into(&mut self, input: &Tensor, mode: Mode, out: &mut Tensor) {
        self.backbone.forward_into(input, mode, out);
    }

    /// Head only, on precomputed features.
    pub fn head_forward(&mut self, features: &Tensor, mode: Mode) -> Tensor {
        self.head.forward(features, mode)
    }

    /// Backward pass from a logits gradient all the way to the input,
    /// accumulating parameter gradients along the way.
    pub fn backward_to_input(&mut self, grad_logits: &Tensor) -> Tensor {
        let mut grad_input = Tensor::default();
        self.backward_to_input_into(grad_logits, &mut grad_input);
        grad_input
    }

    /// Backward pass into a caller-provided input-gradient tensor, reusing
    /// its allocation and the network's internal feature-gradient buffer
    /// (the zero-allocation counterpart of [`Network::backward_to_input`]).
    pub fn backward_to_input_into(&mut self, grad_logits: &Tensor, grad_input: &mut Tensor) {
        self.head
            .backward_into(grad_logits, &mut self.grad_features_buf);
        self.backbone
            .backward_into(&self.grad_features_buf, grad_input);
    }

    /// Total capacity in scalars of every reusable buffer in the network
    /// (layer scratch plus the container ping-pong buffers); see
    /// [`Layer::buffer_capacity`]. Stable across warmed-up training steps.
    pub fn buffer_capacity(&self) -> usize {
        self.backbone.buffer_capacity()
            + self.head.buffer_capacity()
            + self.features_buf.capacity()
            + self.grad_features_buf.capacity()
    }

    /// Drops every reusable buffer in the network (they re-grow on the
    /// next forward pass); see [`Layer::release_buffers`]. Call before
    /// parking a trained model in a long-lived cache so it does not pin
    /// training-batch-sized activation memory.
    pub fn release_buffers(&mut self) {
        self.backbone.release_buffers();
        self.head.release_buffers();
        self.features_buf = Tensor::default();
        self.grad_features_buf = Tensor::default();
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Visits every trainable parameter of backbone and head.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.backbone.visit_params(f);
        self.head.visit_params(f);
    }

    /// Visits only the classification head's parameters (used by defenses
    /// that weight features by how the decision layer reads them).
    pub fn visit_head_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.head.visit_params(f);
    }

    /// Visits every persistent tensor (parameters + buffers).
    pub fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.backbone.visit_state(f);
        self.head.visit_state(f);
    }

    /// Total number of trainable scalars.
    pub fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |p| count += p.len());
        count
    }

    /// Serialises all persistent tensors into one flat vector — the
    /// checkpoint format used by SISA slice snapshots.
    pub fn state_vec(&mut self) -> Vec<f32> {
        let mut state = Vec::new();
        self.visit_state(&mut |t| state.extend_from_slice(t.data()));
        state
    }

    /// Restores a checkpoint produced by [`Network::state_vec`] on a network
    /// with identical architecture.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::StateMismatch`] if the vector length differs from
    /// this network's state size.
    pub fn load_state(&mut self, state: &[f32]) -> Result<(), NnError> {
        let mut expected = 0;
        self.visit_state(&mut |t| expected += t.len());
        if expected != state.len() {
            return Err(NnError::StateMismatch {
                expected,
                got: state.len(),
            });
        }
        let mut offset = 0;
        self.visit_state(&mut |t| {
            let len = t.len();
            t.data_mut().copy_from_slice(&state[offset..offset + len]);
            offset += len;
        });
        Ok(())
    }

    /// Pooled backbone layer-boundary outputs of the last forward pass
    /// (see [`Sequential::boundary_outputs`]).
    pub fn backbone_boundary_outputs(&self) -> &[Tensor] {
        self.backbone.boundary_outputs()
    }

    /// Pooled backbone layer-boundary gradients of the last backward pass,
    /// indexed like [`Network::backbone_boundary_outputs`] (see
    /// [`Sequential::boundary_grads`]).
    pub fn backbone_boundary_grads(&self) -> &[Tensor] {
        self.backbone.boundary_grads()
    }

    /// Layer names of the backbone in order (diagnostics).
    pub fn backbone_layer_names(&self) -> Vec<&'static str> {
        self.backbone.layer_names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, Relu};
    use reveil_tensor::rng;

    fn probe_net() -> Network {
        let mut r = rng::rng_from_seed(4);
        let backbone = Sequential::new()
            .push(Flatten::new())
            .push(Linear::new(12, 6, &mut r).unwrap())
            .push(Relu::new());
        let head = Sequential::new().push(Linear::new(6, 3, &mut r).unwrap());
        Network::new(backbone, head, (3, 2, 2), 3, "probe")
    }

    #[test]
    fn forward_produces_logits() {
        let mut net = probe_net();
        let x = Tensor::ones(&[5, 3, 2, 2]);
        let logits = net.forward(&x, Mode::Train);
        assert_eq!(logits.shape(), &[5, 3]);
        assert_eq!(net.num_classes(), 3);
        assert_eq!(net.input_shape(), (3, 2, 2));
    }

    #[test]
    fn features_then_head_equals_forward() {
        let mut net = probe_net();
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| (i % 5) as f32);
        let direct = net.forward(&x, Mode::Eval);
        let features = net.features(&x, Mode::Eval);
        assert_eq!(features.shape(), &[2, 6]);
        let via_head = net.head_forward(&features, Mode::Eval);
        assert_eq!(direct, via_head);
    }

    #[test]
    fn state_roundtrip_restores_outputs() {
        let mut net = probe_net();
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| (i % 7) as f32 * 0.3);
        let before = net.forward(&x, Mode::Eval);
        let snapshot = net.state_vec();

        // Perturb all parameters.
        net.visit_state(&mut |t| t.map_inplace(|v| v + 1.0));
        let perturbed = net.forward(&x, Mode::Eval);
        assert_ne!(before, perturbed);

        net.load_state(&snapshot).unwrap();
        let after = net.forward(&x, Mode::Eval);
        assert_eq!(before, after);
    }

    #[test]
    fn load_state_rejects_wrong_length() {
        let mut net = probe_net();
        let err = net.load_state(&[0.0; 3]).unwrap_err();
        assert!(matches!(err, NnError::StateMismatch { .. }));
    }

    #[test]
    fn backward_to_input_has_input_shape() {
        let mut net = probe_net();
        let x = Tensor::ones(&[2, 3, 2, 2]);
        let logits = net.forward(&x, Mode::Train);
        net.zero_grads();
        let dx = net.backward_to_input(&Tensor::ones(logits.shape()));
        assert_eq!(dx.shape(), x.shape());
        // At least one parameter gradient must be non-zero.
        let mut any_nonzero = false;
        net.visit_params(&mut |p| any_nonzero |= p.grad().data().iter().any(|&g| g != 0.0));
        assert!(any_nonzero);
    }

    #[test]
    fn param_count_is_stable() {
        let mut net = probe_net();
        // 12*6 + 6 + 6*3 + 3
        assert_eq!(net.param_count(), 99);
    }
}
