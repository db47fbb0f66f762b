//! Neural Cleanse: trigger reverse-engineering (Wang et al., S&P 2019).

use reveil_nn::loss::softmax_cross_entropy_into;
use reveil_nn::{Backward, Network};
use reveil_tensor::math::sigmoid;
use reveil_tensor::{rng, Tensor};

use crate::audit::{check_geometry, AuditInputs, Defense, DefenseVerdict};
use crate::scratch::{stack_into, ScratchPool};
use crate::stats;
use crate::DefenseError;

/// Neural Cleanse configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralCleanseConfig {
    /// Gradient steps per class.
    pub steps: usize,
    /// Adam learning rate for the mask/pattern variables.
    pub lr: f32,
    /// Weight of the mask-sparsity (L1) term.
    pub lambda_l1: f32,
    /// Number of clean samples in the optimisation batch.
    pub sample_count: usize,
    /// Seed for pattern initialisation and sample selection.
    pub seed: u64,
}

impl Default for NeuralCleanseConfig {
    fn default() -> Self {
        Self {
            steps: 60,
            lr: 0.15,
            lambda_l1: 0.02,
            sample_count: 12,
            seed: 0,
        }
    }
}

/// Reverse-engineered trigger statistics for one class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassTriggerResult {
    /// The class the trigger was optimised towards.
    pub class: usize,
    /// L1 norm of the final mask — NC's trigger-size proxy.
    pub mask_l1: f32,
    /// Classification loss towards the class (how well the trigger
    /// works), taken from the last optimisation step's forward pass,
    /// before that step's update. Its mask is therefore one step older
    /// than the final mask that `mask_l1` measures.
    pub loss: f32,
}

/// Neural Cleanse verdict for one suspect model.
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralCleanseReport {
    /// Per-class reverse-engineering results.
    pub per_class: Vec<ClassTriggerResult>,
    /// MAD anomaly index of the smallest-mask class (paper Fig. 7 reports
    /// this value; ≥ 2 ⇔ detected).
    pub anomaly_index: f32,
    /// The class with the smallest reverse-engineered trigger.
    pub flagged_class: usize,
    /// Whether the anomaly index reaches the detection threshold of 2.
    pub detected: bool,
}

/// The detection threshold on the anomaly index (paper: 2).
pub const DETECTION_THRESHOLD: f32 = 2.0;

/// Minimal Adam state over a flat parameter vector (the mask/pattern
/// variables live outside the network, so `reveil_nn::optim` does not
/// apply).
#[derive(Default)]
struct FlatAdam {
    m: Vec<f32>,
    v: Vec<f32>,
    t: i32,
    lr: f32,
}

impl FlatAdam {
    /// Re-initialises the state for a fresh optimisation of `len`
    /// parameters, reusing the moment-vector allocations (identical to a
    /// freshly constructed state).
    fn reset(&mut self, len: usize, lr: f32) {
        self.m.clear();
        self.m.resize(len, 0.0);
        self.v.clear();
        self.v.resize(len, 0.0);
        self.t = 0;
        self.lr = lr;
    }

    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        self.t += 1;
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let bias1 = 1.0 - b1.powi(self.t);
        let bias2 = 1.0 - b2.powi(self.t);
        for ((p, &g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            *p -= self.lr * (*m / bias1) / ((*v / bias2).sqrt() + eps);
        }
    }
}

/// Reusable buffers for one Neural Cleanse audit: the optimisation batch,
/// the per-class mask/pattern variables, the blended inputs, the forward /
/// backward tensors of the mask-optimisation loop, the Adam moment
/// vectors, the per-class results, and the statistics sort scratch. After
/// one warm-up audit at a given input geometry, an audit through the same
/// scratch performs no heap allocation.
#[derive(Default)]
struct CleanseScratch {
    /// Sampled calibration indices.
    picks: Vec<usize>,
    /// Stacked optimisation batch `[count, c, h, w]`.
    batch: Tensor,
    /// Batch-shape scratch.
    shape: Vec<usize>,
    /// Per-step target labels (all `target`).
    labels: Vec<usize>,
    /// Unconstrained mask variable (`h·w`).
    mask_raw: Vec<f32>,
    /// Unconstrained pattern variable (`c·h·w`).
    pattern_raw: Vec<f32>,
    /// Sigmoid-squashed mask of the current step.
    mask: Vec<f32>,
    /// Sigmoid-squashed pattern of the current step.
    pattern: Vec<f32>,
    /// Blended inputs `(1 − m)·x + m·p` of the current step.
    blended: Tensor,
    /// Forward logits of the blended batch.
    logits: Tensor,
    /// Loss gradient with respect to the logits.
    grad_logits: Tensor,
    /// Input gradient from the backward pass.
    grad_input: Tensor,
    /// Gradient in mask space.
    grad_mask: Vec<f32>,
    /// Gradient in pattern space.
    grad_pattern: Vec<f32>,
    /// Adam state of the mask variable, reset per class.
    adam_mask: FlatAdam,
    /// Adam state of the pattern variable, reset per class.
    adam_pattern: FlatAdam,
    /// Per-class reverse-engineering results of the current audit.
    per_class: Vec<ClassTriggerResult>,
    /// Per-class mask norms.
    norms: Vec<f32>,
    /// Sort buffer for the robust statistics.
    sort: Vec<f32>,
}

impl CleanseScratch {
    /// Total capacity in scalars of every reusable buffer.
    fn buffer_capacity(&self) -> usize {
        self.picks.capacity()
            + self.batch.capacity()
            + self.shape.capacity()
            + self.labels.capacity()
            + self.mask_raw.capacity()
            + self.pattern_raw.capacity()
            + self.mask.capacity()
            + self.pattern.capacity()
            + self.blended.capacity()
            + self.logits.capacity()
            + self.grad_logits.capacity()
            + self.grad_input.capacity()
            + self.grad_mask.capacity()
            + self.grad_pattern.capacity()
            + self.adam_mask.m.capacity()
            + self.adam_mask.v.capacity()
            + self.adam_pattern.m.capacity()
            + self.adam_pattern.v.capacity()
            + self.per_class.capacity()
            + self.norms.capacity()
            + self.sort.capacity()
    }
}

/// Reverse-engineers a minimal trigger towards `target` on the batch in
/// `scratch.batch` and returns `(mask_l1, final_loss)`.
///
/// # Errors
///
/// Returns [`DefenseError::Internal`] if the batch is not `[n, c, h, w]`
/// or the loss computation rejects the network's logits.
fn reverse_engineer(
    network: &mut Network,
    target: usize,
    config: &NeuralCleanseConfig,
    scratch: &mut CleanseScratch,
) -> Result<(f32, f32), DefenseError> {
    let CleanseScratch {
        batch,
        labels,
        mask_raw,
        pattern_raw,
        mask,
        pattern,
        blended,
        logits,
        grad_logits,
        grad_input,
        grad_mask,
        grad_pattern,
        adam_mask,
        adam_pattern,
        ..
    } = scratch;
    let &[n, c, h, w] = batch.shape() else {
        return Err(DefenseError::Internal {
            defense: "Neural Cleanse",
            message: format!(
                "reverse_engineer expects [n, c, h, w], got {:?}",
                batch.shape()
            ),
        });
    };
    labels.clear();
    labels.resize(n, target);

    // Unconstrained variables squashed through sigmoids.
    mask_raw.clear();
    mask_raw.resize(h * w, -3.0);
    pattern_raw.clear();
    pattern_raw.resize(c * h * w, 0.0);
    {
        let mut r = rng::rng_from_seed(rng::derive_seed(config.seed, 0x0004_C110 | target as u64));
        for v in pattern_raw.iter_mut() {
            *v = rng::normal(&mut r, 0.0, 0.5);
        }
    }
    adam_mask.reset(mask_raw.len(), config.lr);
    adam_pattern.reset(pattern_raw.len(), config.lr);
    let mut final_loss = f32::INFINITY;

    for _ in 0..config.steps {
        mask.clear();
        mask.extend(mask_raw.iter().map(|&v| sigmoid(v)));
        pattern.clear();
        pattern.extend(pattern_raw.iter().map(|&v| sigmoid(v)));

        // x' = (1 − m)·x + m·p, mask broadcast over batch and channels.
        blended.resize_for_overwrite(batch.shape());
        blended.data_mut().copy_from_slice(batch.data());
        {
            let data = blended.data_mut();
            for img in 0..n {
                for ch in 0..c {
                    let base = (img * c + ch) * h * w;
                    for q in 0..h * w {
                        let m = mask[q];
                        let p = pattern[ch * h * w + q];
                        data[base + q] = (1.0 - m) * data[base + q] + m * p;
                    }
                }
            }
        }

        network.infer_into(blended, logits);
        let loss = softmax_cross_entropy_into(logits, labels, grad_logits)
            .map_err(|e| DefenseError::internal("Neural Cleanse", e))?;
        final_loss = loss;
        network.backward_into(grad_logits, Backward::InputOnly, grad_input);

        // Chain rule into mask and pattern space.
        grad_mask.clear();
        grad_mask.resize(h * w, 0.0);
        grad_pattern.clear();
        grad_pattern.resize(c * h * w, 0.0);
        for img in 0..n {
            for ch in 0..c {
                let base = (img * c + ch) * h * w;
                for q in 0..h * w {
                    let g = grad_input.data()[base + q];
                    let p = pattern[ch * h * w + q];
                    let x = batch.data()[base + q];
                    grad_mask[q] += g * (p - x);
                    grad_pattern[ch * h * w + q] += g * mask[q];
                }
            }
        }
        // L1 sparsity on the (non-negative) mask, plus sigmoid chain.
        for (q, gm) in grad_mask.iter_mut().enumerate() {
            let s = mask[q];
            *gm = (*gm + config.lambda_l1) * s * (1.0 - s);
        }
        for (i, gp) in grad_pattern.iter_mut().enumerate() {
            let s = pattern[i];
            *gp *= s * (1.0 - s);
        }

        adam_mask.step(mask_raw, grad_mask);
        adam_pattern.step(pattern_raw, grad_pattern);
    }

    let mask_l1: f32 = mask_raw.iter().map(|&v| sigmoid(v)).sum();
    Ok((mask_l1, final_loss))
}

/// Runs Neural Cleanse inside `scratch` (the body of
/// [`NeuralCleanseAuditor::report`]). The per-class results stay in
/// `scratch.per_class` and the returned report's `per_class` is left
/// empty, so the verdict path allocates nothing.
fn run(
    network: &mut Network,
    inputs: &AuditInputs<'_>,
    config: &NeuralCleanseConfig,
    scratch: &mut CleanseScratch,
) -> Result<NeuralCleanseReport, DefenseError> {
    let clean_samples = inputs.clean_images();
    if clean_samples.is_empty() {
        return Err(DefenseError::EmptyInput {
            defense: "Neural Cleanse",
            what: "clean calibration",
        });
    }
    if config.steps == 0 {
        return Err(DefenseError::InvalidConfig {
            defense: "Neural Cleanse",
            message: "steps must be positive (zero steps never optimises a trigger)".to_string(),
        });
    }
    check_geometry(
        "Neural Cleanse",
        network,
        "clean calibration",
        clean_samples,
    )?;
    let mut r = rng::rng_from_seed(rng::derive_seed(config.seed, 0x004C_115E));
    let count = config.sample_count.min(clean_samples.len()).max(1);
    rng::sample_indices_into(clean_samples.len(), count, &mut r, &mut scratch.picks);
    stack_into(
        &mut scratch.batch,
        &mut scratch.shape,
        scratch.picks.iter().map(|&i| &clean_samples[i]),
        "Neural Cleanse",
    )?;

    let num_classes = network.num_classes();
    scratch.per_class.clear();
    for class in 0..num_classes {
        let (mask_l1, loss) = reverse_engineer(network, class, config, scratch)?;
        scratch.per_class.push(ClassTriggerResult {
            class,
            mask_l1,
            loss,
        });
    }

    // A non-finite mask norm means the optimisation diverged; the robust
    // statistics below (median/MAD) are undefined on NaN, so reject it as
    // a structured error instead of letting it abort the sweep.
    if let Some(bad) = scratch.per_class.iter().find(|c| !c.mask_l1.is_finite()) {
        return Err(DefenseError::Internal {
            defense: "Neural Cleanse",
            message: format!(
                "trigger optimisation diverged for class {} (mask norm {})",
                bad.class, bad.mask_l1
            ),
        });
    }
    scratch.norms.clear();
    scratch
        .norms
        .extend(scratch.per_class.iter().map(|c| c.mask_l1));
    let Some((flagged_class, &min_norm)) = scratch
        .norms
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
    else {
        return Err(DefenseError::Internal {
            defense: "Neural Cleanse",
            message: "network reports zero classes".to_string(),
        });
    };
    let anomaly_index = stats::anomaly_index(min_norm, &scratch.norms, &mut scratch.sort);
    let below_median = min_norm < stats::median(&scratch.norms, &mut scratch.sort);

    Ok(NeuralCleanseReport {
        per_class: Vec::new(),
        anomaly_index,
        flagged_class,
        detected: anomaly_index >= DETECTION_THRESHOLD && below_median,
    })
}

/// The Neural Cleanse detector: a [`NeuralCleanseConfig`] plus an
/// interior pool of per-audit scratch buffers shared across audits, so
/// repeated audits — including the parallel Fig. 7 grid — reuse their
/// buffers and perform zero heap allocations once warmed up.
pub struct NeuralCleanseAuditor {
    config: NeuralCleanseConfig,
    pool: ScratchPool<CleanseScratch>,
}

impl NeuralCleanseAuditor {
    /// Builds a pooled auditor around `config`.
    pub fn new(config: NeuralCleanseConfig) -> Self {
        Self {
            config,
            pool: ScratchPool::new(),
        }
    }

    /// Runs Neural Cleanse over every class of the network, optimising
    /// each trigger on up to `config.sample_count` of the budgeted clean
    /// images of `inputs`. Unlike [`Defense::audit`], the report carries
    /// the per-class results, which it copies out of the pooled scratch.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::EmptyInput`] if the clean set is empty (the
    /// optimisation batch would be empty and every per-class loss
    /// undefined), [`DefenseError::InvalidConfig`] if `steps` is zero (no
    /// trigger is reverse-engineered, so every mask norm is the random
    /// initialisation and the anomaly index is meaningless), and
    /// [`DefenseError::Internal`] for a clean image whose shape is not the
    /// network's input shape and for substrate failures (a zero-class
    /// network, a diverged optimisation).
    pub fn report(
        &self,
        network: &mut Network,
        inputs: &AuditInputs<'_>,
    ) -> Result<NeuralCleanseReport, DefenseError> {
        self.pool.with(|scratch| {
            let mut report = run(network, inputs, &self.config, scratch)?;
            report.per_class = scratch.per_class.clone();
            Ok(report)
        })
    }
}

impl Defense for NeuralCleanseAuditor {
    fn name(&self) -> &'static str {
        "Neural Cleanse"
    }

    fn audit(
        &self,
        network: &mut Network,
        inputs: &AuditInputs<'_>,
    ) -> Result<DefenseVerdict, DefenseError> {
        let report = self
            .pool
            .with(|scratch| run(network, inputs, &self.config, scratch))?;
        Ok(DefenseVerdict {
            defense: self.name(),
            score: report.anomaly_index,
            threshold: DETECTION_THRESHOLD,
            detected: report.detected,
        })
    }

    fn scratch_capacity(&self) -> usize {
        self.pool.total_capacity(CleanseScratch::buffer_capacity)
    }

    fn release_scratch(&self) {
        self.pool.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reveil_datasets::LabeledDataset;
    use reveil_nn::models;
    use reveil_nn::train::{TrainConfig, Trainer};

    fn toy_dataset(n: usize, seed: u64, classes: usize) -> LabeledDataset {
        let mut r = rng::rng_from_seed(seed);
        let mut ds = LabeledDataset::new("toy", classes);
        for i in 0..n {
            let class = i % classes;
            let level = 0.15 + 0.7 * class as f32 / (classes - 1).max(1) as f32;
            let mut img = Tensor::full(&[1, 8, 8], level);
            rng::fill_gaussian(&mut img, level, 0.04, &mut r);
            img.clamp_inplace(0.0, 1.0);
            ds.push(img, class).unwrap();
        }
        ds
    }

    /// Audits `net` through a fresh auditor, calibrating on all of `clean`.
    fn neural_cleanse(
        net: &mut Network,
        clean: &LabeledDataset,
        config: &NeuralCleanseConfig,
    ) -> Result<NeuralCleanseReport, DefenseError> {
        let inputs = AuditInputs::new(clean, &[], clean.len());
        NeuralCleanseAuditor::new(config.clone()).report(net, &inputs)
    }

    fn stamp(img: &Tensor) -> Tensor {
        let mut out = img.clone();
        for (y, x, v) in [(0, 0, 1.0), (0, 1, 0.0), (1, 0, 0.0), (1, 1, 1.0)] {
            out.set(&[0, y, x], v);
        }
        out
    }

    fn train_model(backdoored: bool, classes: usize) -> Network {
        let data = toy_dataset(90, 1, classes);
        let mut images = data.images().to_vec();
        let mut labels = data.labels().to_vec();
        if backdoored {
            for img in toy_dataset(30, 2, classes).images() {
                images.push(stamp(img));
                labels.push(0);
            }
        }
        let mut net = models::tiny_cnn(1, 8, 8, classes, 8, 3);
        let cfg = TrainConfig::new(12, 16, 5e-3).with_seed(4);
        Trainer::new(cfg).fit(&mut net, &images, &labels);
        net
    }

    #[test]
    fn backdoored_target_class_has_the_smallest_mask() {
        let mut net = train_model(true, 3);
        let clean = toy_dataset(24, 5, 3);
        let config = NeuralCleanseConfig {
            steps: 50,
            ..NeuralCleanseConfig::default()
        };
        let report = neural_cleanse(&mut net, &clean, &config).unwrap();
        assert_eq!(report.per_class.len(), 3);
        assert_eq!(
            report.flagged_class, 0,
            "the backdoor target must have the smallest trigger: {:?}",
            report.per_class
        );
    }

    #[test]
    fn anomaly_index_orders_backdoored_above_clean() {
        let clean = toy_dataset(24, 7, 3);
        let config = NeuralCleanseConfig {
            steps: 50,
            ..NeuralCleanseConfig::default()
        };
        let mut bad = train_model(true, 3);
        let bad_report = neural_cleanse(&mut bad, &clean, &config).unwrap();
        let mut good = train_model(false, 3);
        let good_report = neural_cleanse(&mut good, &clean, &config).unwrap();
        assert!(
            bad_report.anomaly_index > good_report.anomaly_index,
            "backdoored {} must exceed clean {}",
            bad_report.anomaly_index,
            good_report.anomaly_index
        );
    }

    #[test]
    fn reverse_engineering_reduces_loss() {
        let mut net = train_model(true, 3);
        let clean = toy_dataset(12, 9, 3);
        let cfg = NeuralCleanseConfig {
            steps: 40,
            ..NeuralCleanseConfig::default()
        };
        let mut scratch = CleanseScratch {
            batch: Tensor::stack(clean.images()).unwrap(),
            ..CleanseScratch::default()
        };
        let (_, loss) =
            reverse_engineer(&mut net, 0, &cfg, &mut scratch).expect("reverse engineering");
        // Loss towards the backdoor class must drop well below ln(3).
        assert!(loss < (3.0f32).ln() * 0.8, "final loss {loss}");
    }

    #[test]
    fn report_is_deterministic_in_the_seed() {
        let mut net = train_model(true, 3);
        let clean = toy_dataset(16, 11, 3);
        let cfg = NeuralCleanseConfig {
            steps: 20,
            ..NeuralCleanseConfig::default()
        };
        let a = neural_cleanse(&mut net, &clean, &cfg).unwrap();
        let b = neural_cleanse(&mut net, &clean, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn audit_leaves_the_parameter_gradients_untouched() {
        const SENTINEL: f32 = -1234.5;
        let mut net = models::tiny_cnn(1, 8, 8, 3, 8, 3);
        net.visit_params(&mut |p| p.grad_mut().data_mut().fill(SENTINEL));
        let clean = toy_dataset(12, 9, 3);
        let config = NeuralCleanseConfig {
            steps: 3,
            ..NeuralCleanseConfig::default()
        };
        neural_cleanse(&mut net, &clean, &config).unwrap();
        let mut untouched = true;
        net.visit_params(&mut |p| untouched &= p.grad().data().iter().all(|&g| g == SENTINEL));
        assert!(untouched, "the audit wrote a parameter gradient");
    }

    #[test]
    fn empty_clean_set_is_an_error() {
        let mut net = train_model(false, 2);
        let empty = LabeledDataset::new("empty", 2);
        let err = neural_cleanse(&mut net, &empty, &NeuralCleanseConfig::default()).unwrap_err();
        assert_eq!(
            err,
            DefenseError::EmptyInput {
                defense: "Neural Cleanse",
                what: "clean calibration"
            }
        );
    }

    #[test]
    fn zero_steps_is_a_config_error() {
        let mut net = train_model(false, 2);
        let mut probe = LabeledDataset::new("probe", 2);
        probe.push(Tensor::zeros(&[1, 8, 8]), 0).unwrap();
        let config = NeuralCleanseConfig {
            steps: 0,
            ..NeuralCleanseConfig::default()
        };
        let err = neural_cleanse(&mut net, &probe, &config).unwrap_err();
        assert!(matches!(err, DefenseError::InvalidConfig { .. }), "{err}");
    }
}
