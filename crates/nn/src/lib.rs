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
//! Contents:
//!
//! * [`layers`] — Conv2d, DepthwiseConv2d, Linear, BatchNorm2d, ReLU family,
//!   SiLU, pooling, flatten, residual / inverted-residual / MBConv blocks
//!   and squeeze-excitation;
//! * [`Sequential`] and [`Network`] — containers with pooled boundary
//!   buffers;
//! * [`loss`] — softmax cross-entropy with gradient;
//! * [`optim`] — Adam (L2-coupled weight decay, as in the paper's PyTorch
//!   recipe), SGD, and cosine-annealing LR schedule;
//! * [`models`] — the four scaled-down model families used by the paper
//!   (ResNet, MobileNetV2, EfficientNet, WideResNet);
//! * [`train`] — a mini-batch trainer and evaluation helpers.
//!
//! # Example
//!
//! ```
//! use reveil_nn::{models, train::{TrainConfig, Trainer}};
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
//! assert!(report.final_train_accuracy > 0.9);
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

/// A differentiable network layer.
///
/// Layers cache whatever they need during [`Layer::forward_into`] so that
/// the next [`Layer::backward_into`] call can produce the gradient with
/// respect to the layer input and accumulate parameter gradients.
///
/// # Buffer-reuse contract
///
/// The `*_into` methods are the primary interface: they write their result
/// into a caller-provided tensor (resized in place via
/// [`reveil_tensor::Tensor::resize_for_overwrite`], so its allocation is
/// reused once warmed up) and keep whatever state the backward pass needs
/// in reusable internal buffers instead of cloning tensors per call. After
/// one warm-up pass at a given shape, a layer's `forward_into` /
/// `backward_into` perform **no heap allocations** — the property that
/// keeps the training loop allocation-free (see `TrainStep` in
/// [`train`]). The output tensor must be distinct from the input (the
/// `&`/`&mut` signature enforces this), and results are bit-identical to
/// the allocating wrappers.
///
/// [`Layer::forward`] / [`Layer::backward`] are convenience wrappers that
/// return a freshly allocated tensor, for one-off callers and for the tests
/// that pin the pooled path against them.
///
/// The trait is object-safe: networks store `Box<dyn Layer>`.
pub trait Layer: Send {
    /// Computes the layer output for `input` into `out`, reusing `out`'s
    /// allocation and caching what the next [`Layer::backward_into`] needs
    /// in internal buffers.
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
    /// back to the layer input into `grad_input` (reusing its allocation),
    /// accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before a forward pass or with a gradient whose
    /// shape does not match the last forward output.
    fn backward_into(
        &mut self,
        grad_output: &reveil_tensor::Tensor,
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

    /// Allocating wrapper over [`Layer::backward_into`]: returns the input
    /// gradient as a fresh tensor.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Layer::backward_into`].
    fn backward(&mut self, grad_output: &reveil_tensor::Tensor) -> reveil_tensor::Tensor {
        let mut grad_input = reveil_tensor::Tensor::default();
        self.backward_into(grad_output, &mut grad_input);
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
