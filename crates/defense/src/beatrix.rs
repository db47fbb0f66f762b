//! Beatrix: Gram-matrix activation statistics (Ma et al., NDSS 2023).

use reveil_nn::{Mode, Network};
use reveil_tensor::ops::{argmax_rows_into, softmax_rows_into};
use reveil_tensor::Tensor;

use crate::audit::{AuditInputs, Defense, DefenseVerdict};
use crate::scratch::{stack_into, ScratchPool};
use crate::stats;
use crate::DefenseError;

/// Beatrix configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BeatrixConfig {
    /// Gram-matrix orders `p` to include (the paper uses 1..8; the reduced
    /// profiles default to 1, 2, 4, 8).
    pub orders: Vec<u32>,
    /// Maximum clean samples per class used for the class-conditional
    /// statistics.
    pub samples_per_class: usize,
}

impl Default for BeatrixConfig {
    fn default() -> Self {
        Self {
            orders: vec![1, 2, 4, 8],
            samples_per_class: 20,
        }
    }
}

/// Beatrix verdict for one suspect model.
#[derive(Debug, Clone, PartialEq)]
pub struct BeatrixReport {
    /// Model-level anomaly index (≥ e² ⇔ detected, paper Fig. 8): the MAD
    /// anomaly index of the suspect Gram deviations, scaled by how strongly
    /// the deviant inputs concentrate on a single predicted label — the
    /// defining signature separating a backdoor from mere distribution
    /// shift (the original Beatrix likewise flags an *infected label*).
    pub anomaly_index: f32,
    /// Raw MAD anomaly index before concentration scaling.
    pub raw_anomaly_index: f32,
    /// Fraction of suspect inputs predicted into the modal class, rescaled
    /// so 0 = uniform spread and 1 = all on one label.
    pub label_concentration: f32,
    /// Median Gram deviation of the suspect inputs.
    pub median_suspect_deviation: f32,
    /// Median Gram deviation of the clean inputs (self-consistency level).
    pub median_clean_deviation: f32,
    /// Whether the anomaly index reaches e².
    pub detected: bool,
}

/// The detection threshold on the anomaly index: e² ≈ 7.389 (paper Fig. 8).
pub const DETECTION_THRESHOLD: f32 = 7.389_056;

/// Per-dimension robust envelope of one class's calibration features.
#[derive(Default)]
struct ClassStats {
    med: Vec<f32>,
    mad: Vec<f32>,
    /// Whether the class had the ≥ 2 calibration samples an envelope needs.
    valid: bool,
}

/// Reusable buffers for one Beatrix audit: the stacked calibration /
/// importance / suspect batches, the pooled spatial-activation copy, the
/// flat Gram-feature matrices, the class envelopes, the prediction path
/// tensors, and the statistics scratch. After one warm-up audit at a given
/// geometry, an audit through the same scratch performs no heap
/// allocation.
#[derive(Default)]
struct BeatrixScratch {
    /// Per-class calibration sample indices into the clean set.
    calib_indices: Vec<usize>,
    /// Labels of the calibration samples, aligned with `calib_indices`.
    calib_labels: Vec<usize>,
    /// Stacked calibration batch.
    calib_batch: Tensor,
    /// Stacked channel-importance probe batch (first ≤ 16 calib images).
    importance_batch: Tensor,
    /// Stacked suspect batch.
    suspect_batch: Tensor,
    /// Backbone feature output of the last forward.
    features_out: Tensor,
    /// Copy of the attributed `[n, c, h, w]` spatial activation.
    spatial: Tensor,
    /// Batch-shape scratch for stacking.
    shape: Vec<usize>,
    /// Per-channel decision importance, normalised to mean 1.
    importance: Vec<f32>,
    /// Pairwise importance products feeding the channel-pair mask.
    products: Vec<f32>,
    /// Channel-pair mask over the Gram upper triangle.
    mask: Vec<bool>,
    /// `|F|^p` rows of the current image and order.
    powed: Vec<f32>,
    /// Flat calibration Gram features, `[num_calib × feat_dim]` row-major.
    calib_feats: Vec<f32>,
    /// Flat suspect Gram features, `[num_suspects × feat_dim]` row-major.
    suspect_feats: Vec<f32>,
    /// Per-class robust envelopes.
    class_stats: Vec<ClassStats>,
    /// One feature dimension across the class members (envelope builder).
    column: Vec<f32>,
    /// Per-dimension deviations of one feature vector.
    devs: Vec<f32>,
    /// Clean self-deviations.
    clean_devs: Vec<f32>,
    /// Suspect deviations vs their predicted class.
    suspect_devs: Vec<f32>,
    /// Suspect logits.
    logits: Tensor,
    /// Suspect softmax probabilities.
    probs: Tensor,
    /// Suspect predicted labels.
    preds: Vec<usize>,
    /// Predicted-label histogram for the concentration term.
    counts: Vec<usize>,
    /// Sort buffer for the robust statistics.
    sort: Vec<f32>,
}

impl BeatrixScratch {
    /// Total capacity in scalars of every reusable buffer.
    fn buffer_capacity(&self) -> usize {
        self.calib_indices.capacity()
            + self.calib_labels.capacity()
            + self.calib_batch.capacity()
            + self.importance_batch.capacity()
            + self.suspect_batch.capacity()
            + self.features_out.capacity()
            + self.spatial.capacity()
            + self.shape.capacity()
            + self.importance.capacity()
            + self.products.capacity()
            + self.mask.capacity()
            + self.powed.capacity()
            + self.calib_feats.capacity()
            + self.suspect_feats.capacity()
            + self.class_stats.capacity()
            + self
                .class_stats
                .iter()
                .map(|c| c.med.capacity() + c.mad.capacity())
                .sum::<usize>()
            + self.column.capacity()
            + self.devs.capacity()
            + self.clean_devs.capacity()
            + self.suspect_devs.capacity()
            + self.logits.capacity()
            + self.probs.capacity()
            + self.preds.capacity()
            + self.counts.capacity()
            + self.sort.capacity()
    }
}

/// Copies the network's last spatial activation for `batch` into `spatial`.
///
/// Runs one pooled eval-mode backbone forward ([`Network::features_into`])
/// and probes the layer-boundary buffers newest-first — the final feature
/// tensor, then the interior boundaries in reverse — for a 4-D activation.
///
/// # Errors
///
/// Returns [`DefenseError::Internal`] if no boundary is 4-D and the feature
/// tensor has a shape Beatrix cannot attribute (not `[n, d]`).
fn last_spatial_into(
    network: &mut Network,
    batch: &Tensor,
    features_out: &mut Tensor,
    spatial: &mut Tensor,
) -> Result<(), DefenseError> {
    network.features_into(batch, Mode::Eval, features_out);
    if features_out.ndim() == 4 {
        spatial.resize_for_overwrite(features_out.shape());
        spatial.data_mut().copy_from_slice(features_out.data());
        return Ok(());
    }
    if let Some(b) = network
        .backbone_boundary_outputs()
        .iter()
        .rev()
        .find(|a| a.ndim() == 4)
    {
        spatial.resize_for_overwrite(b.shape());
        spatial.data_mut().copy_from_slice(b.data());
        return Ok(());
    }
    // Vector-feature fallback (e.g. MLP probes): treat the feature
    // vector as a [d, 1, 1] spatial activation.
    let &[n, d] = features_out.shape() else {
        return Err(DefenseError::Internal {
            defense: "Beatrix",
            message: format!("unexpected feature shape {:?}", features_out.shape()),
        });
    };
    spatial.resize_for_overwrite(&[n, d, 1, 1]);
    spatial.data_mut().copy_from_slice(features_out.data());
    Ok(())
}

/// Per-channel importance of the attributed activation for the classifier's
/// decision, derived from the head's first matching linear layer: the mean
/// absolute weight applied to each of the `c` channels (`plane` spatial
/// positions each), normalised to mean 1 and written into `importance`.
///
/// The paper's Beatrix reads a *semantically deep* layer of ResNet-scale
/// models, where activations of correctly classified inputs no longer carry
/// input-space nuisances the classifier ignores. Our substrate models are
/// two to five convolutions deep, so the raw last-conv activation still
/// shows any input perturbation — triggered-but-correctly-classified inputs
/// would flag on *distribution shift*, not backdoor behaviour. Weighting
/// channels by how much the classification head actually reads them
/// restores the "as seen by the decision" property the original relies on.
/// With no matching head weight every channel gets 1.
fn channel_importance_into(
    network: &mut Network,
    c: usize,
    plane: usize,
    importance: &mut Vec<f32>,
) {
    importance.clear();
    importance.resize(c, 0.0);
    // First rank-2 parameter of the head whose input width matches the
    // activation (= its input weight matrix [K, D]).
    let mut matched = false;
    network.visit_head_params(&mut |p| {
        if matched || p.value().ndim() != 2 {
            return;
        }
        let k = p.value().shape()[0];
        let d = p.value().shape()[1];
        if d != c && d != c * plane {
            return;
        }
        matched = true;
        let data = p.value().data();
        if d == c {
            // GAP head: one weight column per channel.
            for row in 0..k {
                for (ch, imp) in importance.iter_mut().enumerate() {
                    *imp += data[row * d + ch].abs();
                }
            }
        } else {
            // Flatten head: average the |weights| over each channel's plane.
            for row in 0..k {
                for (ch, imp) in importance.iter_mut().enumerate() {
                    let base = row * d + ch * plane;
                    *imp += data[base..base + plane]
                        .iter()
                        .map(|v| v.abs())
                        .sum::<f32>()
                        / plane as f32;
                }
            }
        }
    });
    if !matched {
        importance.iter_mut().for_each(|v| *v = 1.0);
        return;
    }
    let mean: f32 = importance.iter().sum::<f32>() / c as f32;
    if mean > 1e-12 {
        for v in importance.iter_mut() {
            *v /= mean;
        }
    } else {
        importance.iter_mut().for_each(|v| *v = 1.0);
    }
}

/// Builds the channel-pair mask from per-channel importance: a Gram entry
/// `(a, b)` is kept when `importance[a] · importance[b]` reaches the median
/// pair importance, i.e. the statistics only read activation directions the
/// classification head actually uses. With uniform importance every pair is
/// kept.
fn pair_mask_into(
    importance: &[f32],
    products: &mut Vec<f32>,
    sort: &mut Vec<f32>,
    mask: &mut Vec<bool>,
) {
    mask.clear();
    let c = importance.len();
    if c == 0 {
        return;
    }
    products.clear();
    for a in 0..c {
        for b in a..c {
            products.push(importance[a] * importance[b]);
        }
    }
    let threshold = stats::median(products, sort);
    mask.extend(products.iter().map(|&p| p >= threshold));
}

/// Extracts the per-sample Gram feature vectors of a `[n, c, h, w]` spatial
/// activation into the flat row-major `out` (`n` rows), keeping only channel
/// pairs enabled by `mask` (empty = all pairs), and returns the per-sample
/// feature dimension.
///
/// For each order `p`, the `[c, h·w]` activation `F` (absolute values, so
/// fractional roots are defined for pre-activation features) contributes
/// the masked upper triangle of `(|F|^p · |F|^pᵀ)^(1/p)`, normalised by the
/// spatial size.
fn gram_features_with(
    spatial: &Tensor,
    orders: &[u32],
    mask: &[bool],
    powed: &mut Vec<f32>,
    out: &mut Vec<f32>,
) -> Result<usize, DefenseError> {
    let &[n, c, h, w] = spatial.shape() else {
        return Err(DefenseError::Internal {
            defense: "Beatrix",
            message: format!("activation is not [n, c, h, w]: {:?}", spatial.shape()),
        });
    };
    let plane = h * w;
    out.clear();
    for img in 0..n {
        for &p in orders {
            // |F|^p rows, masked Gram upper triangle with 1/p root.
            powed.clear();
            powed.extend(
                spatial.data()[img * c * plane..(img + 1) * c * plane]
                    .iter()
                    .map(|v| v.abs().powi(p as i32)),
            );
            let mut pair = 0;
            for a in 0..c {
                let ra = &powed[a * plane..(a + 1) * plane];
                for b in a..c {
                    let keep = mask.get(pair).copied().unwrap_or(true);
                    pair += 1;
                    if !keep {
                        continue;
                    }
                    let rb = &powed[b * plane..(b + 1) * plane];
                    let dot: f32 =
                        ra.iter().zip(rb).map(|(x, y)| x * y).sum::<f32>() / plane as f32;
                    out.push(dot.max(0.0).powf(1.0 / p as f32));
                }
            }
        }
    }
    // Overflowing or NaN activations poison the Gram features, and the
    // robust statistics built from them (median/MAD sort with partial_cmp)
    // would abort on the NaNs that `inf − inf` produces downstream; reject
    // the condition as a structured error at the source.
    if out.iter().any(|v| !v.is_finite()) {
        return Err(DefenseError::Internal {
            defense: "Beatrix",
            message: "Gram features are not finite (overflowing or NaN activations)".to_string(),
        });
    }
    Ok(out.len() / n)
}

/// Median per-dimension MAD-scaled deviation of one feature vector from a
/// class envelope, computed inside the `devs`/`sort` scratch.
fn deviation_with(
    feature: &[f32],
    stats_for_class: &ClassStats,
    devs: &mut Vec<f32>,
    sort: &mut Vec<f32>,
) -> f32 {
    devs.clear();
    devs.extend(
        feature
            .iter()
            .zip(stats_for_class.med.iter().zip(&stats_for_class.mad))
            .map(|(&v, (&m, &s))| (v - m).abs() / (stats::MAD_CONSISTENCY * s + 1e-6)),
    );
    stats::median(devs, sort)
}

/// Runs Beatrix inside `scratch` (the body of [`BeatrixAuditor::report`]).
fn run(
    network: &mut Network,
    inputs: &AuditInputs<'_>,
    config: &BeatrixConfig,
    scratch: &mut BeatrixScratch,
) -> Result<BeatrixReport, DefenseError> {
    let (clean, suspects) = (inputs.clean, inputs.suspects);
    if clean.is_empty() {
        return Err(DefenseError::EmptyInput {
            defense: "Beatrix",
            what: "clean calibration",
        });
    }
    if suspects.is_empty() {
        return Err(DefenseError::EmptyInput {
            defense: "Beatrix",
            what: "suspect",
        });
    }
    if config.orders.is_empty() {
        return Err(DefenseError::InvalidConfig {
            defense: "Beatrix",
            message: "orders must name at least one Gram order".to_string(),
        });
    }
    if config.samples_per_class < 2 {
        return Err(DefenseError::InvalidConfig {
            defense: "Beatrix",
            message: format!(
                "samples_per_class must be at least 2 (a class envelope needs a \
                 median and a MAD), got {}",
                config.samples_per_class
            ),
        });
    }
    // Envelopes are indexed by the clean labels and looked up by the
    // network's predictions, so both must span the same classes.
    if network.num_classes() != clean.num_classes() {
        return Err(DefenseError::Internal {
            defense: "Beatrix",
            message: format!(
                "the network predicts {} classes but the clean set has {}",
                network.num_classes(),
                clean.num_classes()
            ),
        });
    }
    let BeatrixScratch {
        calib_indices,
        calib_labels,
        calib_batch,
        importance_batch,
        suspect_batch,
        features_out,
        spatial,
        shape,
        importance,
        products,
        mask,
        powed,
        calib_feats,
        suspect_feats,
        class_stats,
        column,
        devs,
        clean_devs,
        suspect_devs,
        logits,
        probs,
        preds,
        counts,
        sort,
    } = scratch;

    // Subsample the clean set per class: the first `samples_per_class`
    // members of each class in dataset order (exactly
    // `class_indices(class).take(samples_per_class)`, without the index
    // vector it allocates).
    let num_classes = clean.num_classes();
    calib_indices.clear();
    for class in 0..num_classes {
        let mut taken = 0;
        for (i, &l) in clean.labels().iter().enumerate() {
            if taken >= config.samples_per_class {
                break;
            }
            if l == class {
                calib_indices.push(i);
                taken += 1;
            }
        }
    }
    calib_labels.clear();
    calib_labels.extend(calib_indices.iter().map(|&i| clean.label(i)));
    stack_into(
        calib_batch,
        shape,
        calib_indices.iter().map(|&i| clean.image(i)),
        "Beatrix",
    )?;

    // Channel importance from a probe batch of the first ≤ 16 calib images.
    stack_into(
        importance_batch,
        shape,
        calib_indices.iter().take(16).map(|&i| clean.image(i)),
        "Beatrix",
    )?;
    last_spatial_into(network, importance_batch, features_out, spatial)?;
    let &[_, c, h, w] = spatial.shape() else {
        return Err(DefenseError::Internal {
            defense: "Beatrix",
            message: format!("activation is not [n, c, h, w]: {:?}", spatial.shape()),
        });
    };
    channel_importance_into(network, c, h * w, importance);
    pair_mask_into(importance, products, sort, mask);

    last_spatial_into(network, calib_batch, features_out, spatial)?;
    let feat_dim = gram_features_with(spatial, &config.orders, mask, powed, calib_feats)?;

    // Class-conditional envelopes (classes present in the calibration set).
    class_stats.resize_with(num_classes, ClassStats::default);
    for (class, stats_c) in class_stats.iter_mut().enumerate() {
        let members = calib_labels.iter().filter(|&&l| l == class).count();
        stats_c.valid = members >= 2;
        stats_c.med.clear();
        stats_c.mad.clear();
        if !stats_c.valid {
            continue;
        }
        for d in 0..feat_dim {
            column.clear();
            column.extend(
                calib_labels
                    .iter()
                    .enumerate()
                    .filter(|&(_, &l)| l == class)
                    .map(|(i, _)| calib_feats[i * feat_dim + d]),
            );
            stats_c.med.push(stats::median(column, sort));
            stats_c.mad.push(stats::mad(column, sort));
        }
    }

    // Clean self-deviations (each sample vs its own class envelope).
    clean_devs.clear();
    for (i, &l) in calib_labels.iter().enumerate() {
        if class_stats[l].valid {
            let feature = &calib_feats[i * feat_dim..(i + 1) * feat_dim];
            clean_devs.push(deviation_with(feature, &class_stats[l], devs, sort));
        }
    }
    if clean_devs.is_empty() {
        return Err(DefenseError::InvalidConfig {
            defense: "Beatrix",
            message: format!(
                "no class had the >= 2 calibration samples an envelope needs \
                 (samples_per_class = {})",
                config.samples_per_class
            ),
        });
    }

    // Suspect deviations vs their predicted class. The whole suspect set
    // goes through one stacked forward (both for the predictions and the
    // Gram features) on the pooled inference path.
    stack_into(suspect_batch, shape, suspects.iter(), "Beatrix")?;
    network.infer_into(suspect_batch, logits);
    softmax_rows_into(logits, probs).map_err(|e| DefenseError::internal("Beatrix", e))?;
    argmax_rows_into(probs, preds).map_err(|e| DefenseError::internal("Beatrix", e))?;
    last_spatial_into(network, suspect_batch, features_out, spatial)?;
    let sus_dim = gram_features_with(spatial, &config.orders, mask, powed, suspect_feats)?;
    suspect_devs.clear();
    for (i, &pred) in preds.iter().enumerate() {
        suspect_devs.push(if class_stats[pred].valid {
            let feature = &suspect_feats[i * sus_dim..(i + 1) * sus_dim];
            deviation_with(feature, &class_stats[pred], devs, sort)
        } else {
            // No envelope for that class: fall back to the global worst
            // clean deviation (conservative).
            stats::quantile(clean_devs, 1.0, sort)
        });
    }

    let median_suspect = stats::median(suspect_devs, sort);
    let median_clean = stats::median(clean_devs, sort);
    let raw_anomaly_index = stats::anomaly_index(median_suspect, clean_devs, sort);

    // Label concentration of the suspects: a backdoor funnels deviant
    // inputs into one label; benign shift spreads them across classes.
    let k = num_classes.max(2);
    counts.clear();
    counts.resize(k, 0);
    for &p in preds.iter() {
        counts[p] += 1;
    }
    let modal = counts.iter().copied().max().unwrap_or(0) as f32 / preds.len().max(1) as f32;
    let uniform = 1.0 / k as f32;
    let label_concentration = ((modal - uniform) / (1.0 - uniform)).clamp(0.0, 1.0);
    let anomaly_index = raw_anomaly_index * label_concentration;

    Ok(BeatrixReport {
        anomaly_index,
        raw_anomaly_index,
        label_concentration,
        median_suspect_deviation: median_suspect,
        median_clean_deviation: median_clean,
        detected: anomaly_index >= DETECTION_THRESHOLD,
    })
}

/// The Beatrix detector: a [`BeatrixConfig`] plus an interior pool of
/// per-audit scratch buffers shared across audits, so repeated audits —
/// including the parallel Fig. 8 grid — reuse their buffers and perform
/// zero heap allocations once warmed up.
pub struct BeatrixAuditor {
    config: BeatrixConfig,
    pool: ScratchPool<BeatrixScratch>,
}

impl BeatrixAuditor {
    /// Builds a pooled auditor around `config`.
    pub fn new(config: BeatrixConfig) -> Self {
        Self {
            config,
            pool: ScratchPool::new(),
        }
    }

    /// Runs Beatrix: builds class-conditional Gram statistics from the
    /// labelled clean set of `inputs` (up to `samples_per_class` per class;
    /// the clean budget does not apply), measures the deviation of the
    /// suspect inputs (grouped by their *predicted* class), and reports the
    /// MAD anomaly index.
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::EmptyInput`] if the clean or suspect set is
    /// empty, [`DefenseError::InvalidConfig`] if `orders` is empty,
    /// `samples_per_class` is below 2, or no class has the two calibration
    /// samples an envelope needs, and [`DefenseError::Internal`] if the
    /// network's class count differs from the clean set's, the substrate
    /// cannot stack the evidence, or the network exposes no attributable
    /// activation.
    pub fn report(
        &self,
        network: &mut Network,
        inputs: &AuditInputs<'_>,
    ) -> Result<BeatrixReport, DefenseError> {
        self.pool
            .with(|scratch| run(network, inputs, &self.config, scratch))
    }
}

impl Defense for BeatrixAuditor {
    fn name(&self) -> &'static str {
        "Beatrix"
    }

    fn audit(
        &self,
        network: &mut Network,
        inputs: &AuditInputs<'_>,
    ) -> Result<DefenseVerdict, DefenseError> {
        let report = self.report(network, inputs)?;
        Ok(DefenseVerdict {
            defense: self.name(),
            score: report.anomaly_index,
            threshold: DETECTION_THRESHOLD,
            detected: report.detected,
        })
    }

    fn scratch_capacity(&self) -> usize {
        self.pool.total_capacity(BeatrixScratch::buffer_capacity)
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
    use reveil_tensor::rng;

    fn toy_dataset(n: usize, seed: u64) -> LabeledDataset {
        let mut r = rng::rng_from_seed(seed);
        let mut ds = LabeledDataset::new("toy", 2);
        for i in 0..n {
            let class = i % 2;
            let level = 0.2 + 0.6 * class as f32;
            let mut img = Tensor::full(&[1, 8, 8], level);
            rng::fill_gaussian(&mut img, level, 0.05, &mut r);
            img.clamp_inplace(0.0, 1.0);
            ds.push(img, class).unwrap();
        }
        ds
    }

    /// Audits `net` through a fresh auditor.
    fn beatrix(
        net: &mut Network,
        clean: &LabeledDataset,
        suspects: &[Tensor],
        config: &BeatrixConfig,
    ) -> Result<BeatrixReport, DefenseError> {
        let inputs = AuditInputs::new(clean, suspects, clean.len());
        BeatrixAuditor::new(config.clone()).report(net, &inputs)
    }

    fn stamp(img: &Tensor) -> Tensor {
        let mut out = img.clone();
        for (y, x, v) in [(0, 0, 1.0), (0, 1, 0.0), (1, 0, 0.0), (1, 1, 1.0)] {
            out.set(&[0, y, x], v);
        }
        out
    }

    fn train_model(backdoored: bool) -> Network {
        let data = toy_dataset(80, 1);
        let mut images: Vec<Tensor> = data.images().to_vec();
        let mut labels: Vec<usize> = data.labels().to_vec();
        if backdoored {
            let extra = toy_dataset(20, 2);
            for (img, _) in extra.iter() {
                images.push(stamp(img));
                labels.push(0);
            }
        }
        let mut net = models::tiny_cnn(1, 8, 8, 2, 8, 3);
        Trainer::new(TrainConfig::new(12, 16, 5e-3).with_seed(4)).fit(&mut net, &images, &labels);
        net
    }

    #[test]
    fn gram_features_have_consistent_dims() {
        let mut net = train_model(false);
        let images = vec![Tensor::zeros(&[1, 8, 8]), Tensor::ones(&[1, 8, 8])];
        let batch = Tensor::stack(&images).unwrap();
        let mut features_out = Tensor::default();
        let mut spatial = Tensor::default();
        last_spatial_into(&mut net, &batch, &mut features_out, &mut spatial)
            .expect("spatial activation");
        let mut powed = Vec::new();
        let mut feats = Vec::new();
        let dim =
            gram_features_with(&spatial, &[1, 2], &[], &mut powed, &mut feats).expect("features");
        assert!(dim > 0);
        assert_eq!(feats.len(), 2 * dim);
        assert!(feats.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn channel_importance_is_normalised() {
        let mut net = train_model(true);
        let batch = Tensor::stack(&[Tensor::full(&[1, 8, 8], 0.4)]).unwrap();
        let mut features_out = Tensor::default();
        let mut spatial = Tensor::default();
        last_spatial_into(&mut net, &batch, &mut features_out, &mut spatial)
            .expect("spatial activation");
        let (c, plane) = (spatial.shape()[1], spatial.shape()[2] * spatial.shape()[3]);
        let mut importance = Vec::new();
        channel_importance_into(&mut net, c, plane, &mut importance);
        assert!(!importance.is_empty());
        let mean: f32 = importance.iter().sum::<f32>() / importance.len() as f32;
        assert!((mean - 1.0).abs() < 1e-4, "mean {mean}");
        assert!(importance.iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn triggered_inputs_deviate_more_on_backdoored_model() {
        let calib = toy_dataset(40, 5);
        let suspects: Vec<Tensor> = calib.images().iter().take(10).map(stamp).collect();
        let config = BeatrixConfig {
            orders: vec![1, 2],
            samples_per_class: 15,
        };

        let mut bad = train_model(true);
        let bad_report = beatrix(&mut bad, &calib, &suspects, &config).unwrap();
        let mut good = train_model(false);
        let good_report = beatrix(&mut good, &calib, &suspects, &config).unwrap();

        assert!(
            bad_report.anomaly_index > good_report.anomaly_index,
            "backdoored {} must exceed clean {}",
            bad_report.anomaly_index,
            good_report.anomaly_index
        );
    }

    #[test]
    fn clean_suspects_score_low() {
        let calib = toy_dataset(40, 7);
        let clean_suspects: Vec<Tensor> =
            calib.images().iter().skip(20).take(10).cloned().collect();
        let mut net = train_model(true);
        let config = BeatrixConfig {
            orders: vec![1, 2],
            samples_per_class: 15,
        };
        let report = beatrix(&mut net, &calib, &clean_suspects, &config).unwrap();
        assert!(
            report.anomaly_index < DETECTION_THRESHOLD,
            "clean inputs must not trip the detector: {}",
            report.anomaly_index
        );
    }

    #[test]
    fn report_fields_consistent() {
        let calib = toy_dataset(30, 9);
        let suspects: Vec<Tensor> = calib.images().iter().take(5).map(stamp).collect();
        let mut net = train_model(true);
        let report = beatrix(&mut net, &calib, &suspects, &BeatrixConfig::default()).unwrap();
        assert_eq!(report.detected, report.anomaly_index >= DETECTION_THRESHOLD);
        assert!(report.median_clean_deviation >= 0.0);
        assert!(report.median_suspect_deviation >= 0.0);
    }

    #[test]
    fn empty_inputs_are_errors_not_panics() {
        let mut net = train_model(false);
        let empty = LabeledDataset::new("x", 2);
        let err = beatrix(
            &mut net,
            &empty,
            &[Tensor::zeros(&[1, 8, 8])],
            &BeatrixConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            DefenseError::EmptyInput {
                defense: "Beatrix",
                what: "clean calibration"
            }
        );

        let calib = toy_dataset(10, 3);
        let err = beatrix(&mut net, &calib, &[], &BeatrixConfig::default()).unwrap_err();
        assert_eq!(
            err,
            DefenseError::EmptyInput {
                defense: "Beatrix",
                what: "suspect"
            }
        );
    }

    #[test]
    fn overflowing_model_is_an_internal_error_not_an_abort() {
        // Huge weights drive the Gram dot products to infinity; the MAD
        // of an all-infinite column is `inf − inf = NaN`, which would
        // abort the robust statistics mid-sweep.
        let mut net = train_model(false);
        net.visit_params(&mut |p| p.value_mut().data_mut().fill(1e30));
        let calib = toy_dataset(20, 11);
        let suspects: Vec<Tensor> = calib.images().iter().take(5).map(stamp).collect();
        let config = BeatrixConfig {
            orders: vec![1, 2],
            samples_per_class: 10,
        };
        let err = beatrix(&mut net, &calib, &suspects, &config).unwrap_err();
        assert!(matches!(err, DefenseError::Internal { .. }), "{err}");
    }

    #[test]
    fn empty_orders_is_a_config_error() {
        let mut net = train_model(false);
        let calib = toy_dataset(10, 5);
        let config = BeatrixConfig {
            orders: vec![],
            samples_per_class: 5,
        };
        let err = beatrix(&mut net, &calib, &[Tensor::zeros(&[1, 8, 8])], &config).unwrap_err();
        assert!(matches!(err, DefenseError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn fewer_than_two_samples_per_class_is_a_config_error() {
        let mut net = train_model(false);
        let calib = toy_dataset(10, 5);
        for samples_per_class in [0, 1] {
            let config = BeatrixConfig {
                samples_per_class,
                ..BeatrixConfig::default()
            };
            let err = beatrix(&mut net, &calib, &[Tensor::zeros(&[1, 8, 8])], &config).unwrap_err();
            assert!(
                matches!(err, DefenseError::InvalidConfig { .. }),
                "samples_per_class {samples_per_class}: {err}"
            );
        }
    }

    #[test]
    fn class_count_mismatch_is_an_internal_error_not_a_panic() {
        // A 3-class network audited against a 2-class clean set: with the
        // class-2 bias pushed up, every suspect is predicted into the class
        // the clean set has no envelope for.
        let mut net = models::tiny_cnn(1, 8, 8, 3, 8, 3);
        net.visit_head_params(&mut |p| {
            if p.value().ndim() == 1 {
                p.value_mut().data_mut()[2] = 1e3;
            }
        });
        let calib = toy_dataset(20, 7);
        let suspects: Vec<Tensor> = calib.images().iter().take(5).map(stamp).collect();
        let config = BeatrixConfig {
            orders: vec![1, 2],
            samples_per_class: 10,
        };
        let err = beatrix(&mut net, &calib, &suspects, &config).unwrap_err();
        assert!(matches!(err, DefenseError::Internal { .. }), "{err}");
    }
}
