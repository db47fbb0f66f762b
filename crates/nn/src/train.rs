//! Mini-batch training loop and batched inference helpers.
//!
//! The hot path is [`TrainStep`]: one forward → loss → backward →
//! optimizer step through the pooled-buffer substrate
//! ([`Network::forward_into`], [`crate::loss::softmax_cross_entropy_into`],
//! [`Network::backward_into`] and the fused optimizer sweeps), so a
//! warmed-up step performs **zero heap allocations**. The backward is a
//! [`Backward::ParamsOnly`] one: it computes the parameter gradients the
//! optimizer reads, not the gradient with respect to the batch. [`Trainer`] drives
//! `TrainStep` over shuffled mini-batches with every per-epoch buffer
//! (batch gather, labels, shuffle order) reused across iterations.

use reveil_tensor::{ops, rng, Tensor};

use crate::loss::softmax_cross_entropy_into;
use crate::optim::{Adam, CosineAnnealing, Optimizer};
use crate::{Backward, Mode, Network, NnError};

/// Learning-rate schedule selection for [`TrainConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant,
    /// Cosine annealing from the base LR to 0 over `t_max` epochs (the
    /// paper's recipe uses `t_max` = number of epochs).
    Cosine {
        /// Annealing horizon in epochs.
        t_max: usize,
    },
}

/// Hyper-parameters for one training run.
///
/// Build with [`TrainConfig::new`] and refine with the `with_*` builder
/// methods; [`TrainConfig::paper_recipe`] reproduces the paper's published
/// settings (Adam, lr 1e-3, weight decay 1e-4, batch 64, cosine annealing).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate.
    pub lr: f32,
    /// L2 weight decay passed to the optimizer.
    pub weight_decay: f32,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Seed controlling shuffle order.
    pub seed: u64,
}

impl TrainConfig {
    /// Creates a config with the given epochs, batch size and learning rate
    /// (no weight decay, constant LR, seed 0).
    pub fn new(epochs: usize, batch_size: usize, lr: f32) -> Self {
        Self {
            epochs,
            batch_size: batch_size.max(1),
            lr,
            weight_decay: 0.0,
            schedule: LrSchedule::Constant,
            seed: 0,
        }
    }

    /// The paper's training recipe scaled to `epochs`: Adam defaults with
    /// lr 1e-3, weight decay 1e-4, batch 64 and cosine annealing with
    /// `T_max = epochs`.
    pub fn paper_recipe(epochs: usize) -> Self {
        Self {
            epochs,
            batch_size: 64,
            lr: 1e-3,
            weight_decay: 1e-4,
            schedule: LrSchedule::Cosine { t_max: epochs },
            seed: 0,
        }
    }

    /// Sets the shuffle seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets L2 weight decay (builder style).
    #[must_use]
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Switches to cosine annealing over `t_max` epochs (builder style).
    #[must_use]
    pub fn with_cosine_schedule(mut self, t_max: usize) -> Self {
        self.schedule = LrSchedule::Cosine { t_max };
        self
    }
}

/// Reusable buffers for one full training step: forward → loss →
/// backward → optimizer step.
///
/// Holds the logits, loss-gradient and backward-scratch tensors across
/// batches, so after the first (warm-up) batch at a given shape a step
/// allocates nothing — the per-layer buffers, the GEMM pack scratch and
/// the optimizer state are likewise reused (see the [`crate::Layer`]
/// buffer-reuse contract). The backward is [`Network::backward_into`]
/// with [`Backward::ParamsOnly`], which skips the input gradient no step
/// reads. Results are bit-identical to driving the allocating
/// wrappers ([`Network::forward`] / [`crate::loss::softmax_cross_entropy`]
/// / [`Network::backward_to_input`]) by hand.
///
/// # Example
///
/// ```
/// use reveil_nn::{models, optim::Adam, train::TrainStep, Mode};
/// use reveil_tensor::Tensor;
///
/// # fn main() -> Result<(), reveil_nn::NnError> {
/// let mut net = models::mlp_probe(1, 8, 8, 2, 42);
/// let mut opt = Adam::new(0.01);
/// let mut step = TrainStep::new();
/// let batch = Tensor::ones(&[4, 1, 8, 8]);
/// let labels = [0, 1, 0, 1];
/// let loss = step.run(&mut net, &mut opt, &batch, &labels)?;
/// assert!(loss.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct TrainStep {
    logits: Tensor,
    grad_logits: Tensor,
    /// The backward's scratch; never read.
    scratch: Tensor,
}

impl TrainStep {
    /// Creates a step executor with empty buffers (they warm up on the
    /// first batch).
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one training step on `batch` (`[n, c, h, w]`) with `labels`
    /// (`n` class indices): forward in [`Mode::Train`], softmax
    /// cross-entropy, gradient reset, parameter-only backward, optimizer
    /// step. Returns the batch loss.
    ///
    /// # Errors
    ///
    /// Propagates loss-input validation errors
    /// (see [`crate::loss::softmax_cross_entropy_into`]).
    pub fn run(
        &mut self,
        network: &mut Network,
        optimizer: &mut dyn Optimizer,
        batch: &Tensor,
        labels: &[usize],
    ) -> Result<f32, NnError> {
        network.forward_into(batch, Mode::Train, &mut self.logits);
        let loss = softmax_cross_entropy_into(&self.logits, labels, &mut self.grad_logits)?;
        network.zero_grads();
        network.backward_into(&self.grad_logits, Backward::ParamsOnly, &mut self.scratch);
        optimizer.step(network);
        Ok(loss)
    }

    /// Total capacity in scalars of the step's own reusable buffers
    /// (logits, loss gradient, backward scratch) — stable once warmed up.
    pub fn buffer_capacity(&self) -> usize {
        self.logits.capacity() + self.grad_logits.capacity() + self.scratch.capacity()
    }
}

/// Summary statistics returned by [`Trainer::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
}

/// Mini-batch trainer executing a [`TrainConfig`] against a [`Network`].
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer for the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains with a fresh Adam optimizer (the paper's choice).
    ///
    /// `images` are single-sample `[c, h, w]` tensors; `labels[i]` is the
    /// class of `images[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty, lengths mismatch, or any image shape
    /// disagrees with the network's input shape.
    pub fn fit(&self, network: &mut Network, images: &[Tensor], labels: &[usize]) -> TrainReport {
        let mut opt = Adam::new(self.config.lr).with_weight_decay(self.config.weight_decay);
        self.fit_with(network, &mut opt, images, labels)
    }

    /// Trains with a caller-supplied optimizer, allowing optimizer state to
    /// persist across calls.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Trainer::fit`].
    pub fn fit_with(
        &self,
        network: &mut Network,
        optimizer: &mut dyn Optimizer,
        images: &[Tensor],
        labels: &[usize],
    ) -> TrainReport {
        assert!(!images.is_empty(), "cannot train on an empty dataset");
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        let (c, h, w) = network.input_shape();
        assert_eq!(
            images[0].shape(),
            &[c, h, w],
            "image shape {:?} does not match network input {:?}",
            images[0].shape(),
            (c, h, w)
        );

        let cfg = &self.config;
        let n = images.len();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        // Every per-batch buffer lives outside the loops and is reused:
        // after the first batch of the first epoch, an epoch allocates
        // nothing (capacity-stability is regression-tested).
        let mut batch = Tensor::zeros(&[0]);
        let mut batch_labels: Vec<usize> = Vec::new();
        let mut order: Vec<usize> = Vec::new();
        let mut step = TrainStep::new();

        for epoch in 0..cfg.epochs {
            let lr = match cfg.schedule {
                LrSchedule::Constant => cfg.lr,
                LrSchedule::Cosine { t_max } => CosineAnnealing::new(cfg.lr, t_max).lr_at(epoch),
            };
            optimizer.set_lr(lr);

            let mut r = rng::rng_from_seed(rng::derive_seed(cfg.seed, 0xE90C_0000 | epoch as u64));
            rng::permutation_into(n, &mut r, &mut order);

            let mut loss_sum = 0.0f32;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch_size) {
                // Gather the batch into a buffer reused across iterations
                // instead of cloning and stacking per-sample tensors.
                batch.resize_for_overwrite(&[chunk.len(), c, h, w]);
                let sample_len = c * h * w;
                for (slot, &i) in chunk.iter().enumerate() {
                    assert_eq!(
                        images[i].shape(),
                        &[c, h, w],
                        "image {i} shape does not match network input"
                    );
                    batch.data_mut()[slot * sample_len..(slot + 1) * sample_len]
                        .copy_from_slice(images[i].data());
                }
                batch_labels.clear();
                batch_labels.extend(chunk.iter().map(|&i| labels[i]));

                let loss = step
                    .run(network, optimizer, &batch, &batch_labels)
                    .unwrap_or_else(|e| panic!("{e}"));

                loss_sum += loss;
                batches += 1;
            }
            epoch_losses.push(loss_sum / batches.max(1) as f32);
        }
        TrainReport { epoch_losses }
    }
}

/// Batched eval-mode class probabilities: `[n, classes]`.
///
/// # Panics
///
/// Panics if `images` is empty or shapes disagree with the network.
pub fn predict_probs(network: &mut Network, images: &[Tensor], batch_size: usize) -> Tensor {
    assert!(!images.is_empty(), "cannot predict on an empty set");
    let batch_size = batch_size.max(1);
    let k = network.num_classes();
    let mut out = Tensor::zeros(&[images.len(), k]);
    let mut row = 0;
    let mut batch = Tensor::zeros(&[0]);
    for chunk in images.chunks(batch_size) {
        // Reuse one batch buffer across chunks instead of stacking fresh
        // tensors per batch.
        let sample_shape = images[0].shape();
        let sample_len = images[0].len();
        let mut shape = Vec::with_capacity(sample_shape.len() + 1);
        shape.push(chunk.len());
        shape.extend_from_slice(sample_shape);
        batch.resize_for_overwrite(&shape);
        for (slot, img) in chunk.iter().enumerate() {
            assert_eq!(img.shape(), sample_shape, "predict image shapes must agree");
            batch.data_mut()[slot * sample_len..(slot + 1) * sample_len]
                .copy_from_slice(img.data());
        }
        let logits = network.forward(&batch, Mode::Eval);
        let probs = ops::softmax_rows(&logits).unwrap_or_else(|e| panic!("{e}"));
        out.data_mut()[row * k..(row + chunk.len()) * k].copy_from_slice(probs.data());
        row += chunk.len();
    }
    out
}

/// Batched eval-mode predicted labels.
///
/// # Panics
///
/// Panics under the same conditions as [`predict_probs`].
pub fn predict_labels(network: &mut Network, images: &[Tensor], batch_size: usize) -> Vec<usize> {
    let probs = predict_probs(network, images, batch_size);
    ops::argmax_rows(&probs).unwrap_or_else(|e| panic!("{e}"))
}

/// Eval-mode accuracy of the network on a labelled set.
///
/// # Panics
///
/// Panics under the same conditions as [`predict_probs`].
pub fn evaluate_accuracy(
    network: &mut Network,
    images: &[Tensor],
    labels: &[usize],
    batch_size: usize,
) -> f32 {
    let preds = predict_labels(network, images, batch_size);
    crate::metrics::accuracy(&preds, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    /// Two-blob toy problem: class 0 = low-intensity images, class 1 = high.
    fn toy_data(n: usize) -> (Vec<Tensor>, Vec<usize>) {
        let mut images = Vec::new();
        let mut labels = Vec::new();
        let mut r = rng::rng_from_seed(1);
        for i in 0..n {
            let class = i % 2;
            let base = if class == 0 { 0.2 } else { 0.8 };
            let mut img = Tensor::full(&[1, 8, 8], base);
            rng::fill_gaussian(&mut img, base, 0.05, &mut r);
            images.push(img);
            labels.push(class);
        }
        (images, labels)
    }

    #[test]
    fn trainer_learns_separable_toy_problem() {
        let (images, labels) = toy_data(40);
        let mut net = models::tiny_cnn(1, 8, 8, 2, 4, 5);
        let cfg = TrainConfig::new(6, 8, 0.01).with_seed(3);
        let report = Trainer::new(cfg).fit(&mut net, &images, &labels);
        let accuracy = evaluate_accuracy(&mut net, &images, &labels, 8);
        assert!(accuracy > 0.9, "accuracy {accuracy}");
        assert_eq!(report.epoch_losses.len(), 6);
        // Loss decreases overall.
        assert!(report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap());
    }

    #[test]
    fn paper_recipe_matches_published_hyperparameters() {
        let cfg = TrainConfig::paper_recipe(100);
        assert_eq!(cfg.epochs, 100);
        assert_eq!(cfg.batch_size, 64);
        assert!((cfg.lr - 1e-3).abs() < 1e-9);
        assert!((cfg.weight_decay - 1e-4).abs() < 1e-9);
        assert_eq!(cfg.schedule, LrSchedule::Cosine { t_max: 100 });
    }

    #[test]
    fn training_is_seed_deterministic() {
        let (images, labels) = toy_data(24);
        let run = |seed: u64| {
            let mut net = models::mlp_probe(1, 8, 8, 2, 9);
            let cfg = TrainConfig::new(3, 8, 0.02).with_seed(seed);
            Trainer::new(cfg).fit(&mut net, &images, &labels);
            net.state_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn predict_functions_agree() {
        let (images, labels) = toy_data(16);
        let mut net = models::mlp_probe(1, 8, 8, 2, 2);
        Trainer::new(TrainConfig::new(10, 8, 0.05)).fit(&mut net, &images, &labels);
        let probs = predict_probs(&mut net, &images, 4);
        let labels_pred = predict_labels(&mut net, &images, 4);
        for (i, &p) in labels_pred.iter().enumerate() {
            let row = &probs.data()[i * 2..(i + 1) * 2];
            let argmax = if row[0] >= row[1] { 0 } else { 1 };
            assert_eq!(p, argmax);
        }
        let acc = evaluate_accuracy(&mut net, &images, &labels, 4);
        assert!(acc > 0.8);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn fit_rejects_empty_dataset() {
        let mut net = models::mlp_probe(1, 8, 8, 2, 2);
        Trainer::new(TrainConfig::new(1, 8, 0.1)).fit(&mut net, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "does not match network input")]
    fn fit_rejects_wrong_image_shape() {
        let mut net = models::mlp_probe(1, 8, 8, 2, 2);
        let images = vec![Tensor::zeros(&[1, 4, 4])];
        Trainer::new(TrainConfig::new(1, 8, 0.1)).fit(&mut net, &images, &[0]);
    }
}
