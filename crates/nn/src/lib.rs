//! From-scratch neural-network substrate for the ReVeil reproduction.
//!
//! The paper trains image classifiers with Adam + cosine-annealed learning
//! rates and then probes them with defenses that need *white-box* access:
//! Neural Cleanse differentiates the loss with respect to the **input**, and
//! GradCAM/Beatrix read intermediate activations. This crate therefore
//! implements layer-level reverse-mode differentiation where every layer can
//! return the gradient with respect to its input, and [`Sequential`] exposes
//! the activation and gradient at every interior layer boundary of the last
//! pass.
//!
//! Every layer has one backward method, [`Layer::backward_into`], and its
//! [`Backward`] argument names the gradients the caller reads, so each
//! caller computes only those:
//!
//! * [`Backward::Full`] writes the input gradient and accumulates every
//!   parameter gradient, for callers that read both.
//! * [`Backward::InputOnly`] writes the same input gradient, bit for bit,
//!   and touches no parameter gradient. Neural Cleanse and GradCAM pass
//!   it to [`Network::backward_into`], because they differentiate with
//!   respect to the input only.
//! * [`Backward::ParamsOnly`] accumulates the same parameter gradients,
//!   bit for bit, and need not compute the input gradient. Training
//!   passes it, because an optimizer step reads no input gradient.
//!
//! Contents:
//!
//! * [`layers`] — Conv2d, DepthwiseConv2d, Linear, BatchNorm2d, ReLU family,
//!   SiLU, pooling, flatten, residual / inverted-residual / MBConv blocks
//!   and squeeze-excitation;
//! * [`Sequential`] and [`Network`] — containers with pooled boundary
//!   buffers;
//! * [`loss`] — softmax cross-entropy with gradient;
//! * [`optim`] — Adam (L2-coupled weight decay, as in the paper's PyTorch
//!   recipe), plain SGD, and cosine-annealing LR schedule;
//! * [`models`] — the four scaled-down model families used by the paper
//!   (ResNet, MobileNetV2, EfficientNet, WideResNet);
//! * [`train`] — a mini-batch trainer and evaluation helpers.
//!
//! # Example
//!
//! ```
//! use reveil_nn::{models, train::{evaluate_accuracy, TrainConfig, Trainer}};
//! use reveil_tensor::Tensor;
//!
//! // Learn to classify two trivially separable synthetic classes.
//! let mut images = Vec::new();
//! let mut labels = Vec::new();
//! for i in 0..32 {
//!     let class = i % 2;
//!     images.push(Tensor::full(&[1, 8, 8], class as f32));
//!     labels.push(class);
//! }
//! let mut net = models::mlp_probe(1, 8, 8, 2, 42);
//! let cfg = TrainConfig::new(4, 8, 0.01).with_seed(7);
//! let report = Trainer::new(cfg).fit(&mut net, &images, &labels);
//! assert_eq!(report.epoch_losses.len(), 4);
//! assert!(evaluate_accuracy(&mut net, &images, &labels, 8) > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod network;
mod param;
mod sequential;

pub mod layers;
pub mod loss;
pub mod metrics;
pub mod models;
pub mod optim;
pub mod train;

pub use error::NnError;
pub use network::Network;
pub use param::Param;
pub use sequential::Sequential;

/// Forward-pass mode: training (batch statistics, dropout active) or
/// evaluation (running statistics, deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Training mode.
    Train,
    /// Evaluation / inference mode.
    #[default]
    Eval,
}

/// Which gradients a backward pass computes. Every variant writes a
/// container's boundary gradients ([`Sequential::boundary_grads`])
/// identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backward {
    /// The input gradient and every parameter gradient.
    Full,
    /// The input gradient only, bit for bit as [`Backward::Full`] writes
    /// it; no parameter gradient is touched (input-space optimisation and
    /// attribution: Neural Cleanse, GradCAM).
    InputOnly,
    /// The parameter gradients only, bit for bit as [`Backward::Full`]
    /// accumulates them (the training step). `grad_input` may be written
    /// or left untouched; its contents afterwards mean nothing.
    ParamsOnly,
}

impl Backward {
    /// Whether this pass writes the input gradient.
    pub(crate) fn input(self) -> bool {
        self != Backward::ParamsOnly
    }

    /// Whether this pass accumulates the parameter gradients.
    pub(crate) fn params(self) -> bool {
        self != Backward::InputOnly
    }

    /// This pass for a layer whose input gradient someone reads:
    /// [`Backward::ParamsOnly`] becomes [`Backward::Full`].
    pub(crate) fn with_input(self) -> Self {
        match self {
            Backward::ParamsOnly => Backward::Full,
            grads => grads,
        }
    }
}

/// A differentiable network layer.
///
/// Layers cache whatever they need during [`Layer::forward_into`] so that
/// the next [`Layer::backward_into`] can produce the gradient with respect
/// to the layer input. Its [`Backward`] argument says which gradients to
/// compute: layers with parameters skip the work the caller does not read
/// ([`Conv2d`](layers::Conv2d), for instance, its input gradient under
/// [`Backward::ParamsOnly`]); parameter-free layers ignore it.
///
/// # Buffer-reuse contract
///
/// The `*_into` methods are the primary interface: they write their result
/// into a caller-provided tensor (resized in place via
/// [`reveil_tensor::Tensor::resize_for_overwrite`], so its allocation is
/// reused once warmed up) and keep whatever state the backward pass needs
/// in reusable internal buffers instead of cloning tensors per call. After
/// one warm-up pass at a given shape, a layer's `forward_into` and
/// `backward_into` perform **no heap allocations** — the property that
/// keeps the training loop and the defense audits allocation-free (see
/// `TrainStep` in [`train`]). The output tensor must be distinct from the
/// input (the `&`/`&mut` signature enforces this), and results are
/// bit-identical to the allocating wrappers.
///
/// [`Layer::forward`] / [`Layer::backward`] are convenience wrappers that
/// return a freshly allocated tensor, for one-off callers and for the tests
/// that pin the pooled path against them.
///
/// The trait is object-safe: networks store `Box<dyn Layer>`.
pub trait Layer: Send {
    /// Computes the layer output for `input` into `out`, reusing `out`'s
    /// allocation and caching what the next backward call needs in
    /// internal buffers.
    ///
    /// # Panics
    ///
    /// Implementations panic (with a descriptive message) if `input` has a
    /// shape incompatible with the layer configuration; shape agreement is a
    /// construction-time contract, not a runtime input.
    fn forward_into(
        &mut self,
        input: &reveil_tensor::Tensor,
        mode: Mode,
        out: &mut reveil_tensor::Tensor,
    );

    /// Propagates `grad_output` (gradient w.r.t. the last forward output)
    /// back to the layer input into `grad_input` (reusing its allocation)
    /// and accumulates the parameter gradients, computing only what
    /// `grads` asks for.
    ///
    /// # Panics
    ///
    /// Panics if called before a forward pass or with a gradient whose
    /// shape does not match the last forward output.
    fn backward_into(
        &mut self,
        grad_output: &reveil_tensor::Tensor,
        grads: Backward,
        grad_input: &mut reveil_tensor::Tensor,
    );

    /// Allocating wrapper over [`Layer::forward_into`]: returns the output
    /// as a fresh tensor.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Layer::forward_into`].
    fn forward(&mut self, input: &reveil_tensor::Tensor, mode: Mode) -> reveil_tensor::Tensor {
        let mut out = reveil_tensor::Tensor::default();
        self.forward_into(input, mode, &mut out);
        out
    }

    /// Allocating wrapper over a [`Backward::Full`]
    /// [`Layer::backward_into`]: returns the input gradient as a fresh
    /// tensor.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Layer::backward_into`].
    fn backward(&mut self, grad_output: &reveil_tensor::Tensor) -> reveil_tensor::Tensor {
        let mut grad_input = reveil_tensor::Tensor::default();
        self.backward_into(grad_output, Backward::Full, &mut grad_input);
        grad_input
    }

    /// Total capacity in scalars of the layer's reusable buffers (saved
    /// activations, masks, conv scratch, container ping-pong buffers).
    ///
    /// Capacity-stability regression tests assert this stops growing after
    /// the first epoch — the observable form of the zero-allocation
    /// contract.
    fn buffer_capacity(&self) -> usize {
        0
    }

    /// Drops the layer's reusable buffers (they re-grow on the next
    /// forward pass) and discards saved forward state, so a model parked
    /// in a long-lived cache does not pin training-batch-sized activation
    /// memory.
    ///
    /// Call only between passes: a `backward` after `release_buffers`
    /// without a fresh `forward` panics with the usual
    /// "backward before forward" diagnostic. Trainable parameters and
    /// persistent state (e.g. batch-norm running statistics) are
    /// untouched.
    fn release_buffers(&mut self) {}

    /// Visits every trainable parameter.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every persistent tensor: trainable parameters *and* buffers
    /// such as batch-norm running statistics. Used for checkpointing (SISA
    /// slice snapshots) and model cloning.
    fn visit_state(&mut self, f: &mut dyn FnMut(&mut reveil_tensor::Tensor)) {
        self.visit_params(&mut |p| f(p.value_mut()));
    }

    /// Short human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;
}
