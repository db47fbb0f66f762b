//! SISA exact unlearning (Bourtoule et al., IEEE S&P 2021), naive variant.

use std::collections::BTreeSet;

use reveil_core::Classifier;
use reveil_datasets::LabeledDataset;
use reveil_nn::train::{TrainConfig, Trainer};
use reveil_nn::{train, Network};
use reveil_tensor::{ops, parallel, rng, Tensor};

use crate::error::UnlearnError;
use crate::unlearner::{check_request, UnlearnMethod, UnlearnReport, Unlearner};

/// SISA topology configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SisaConfig {
    /// Number of shards `S` (independent constituent models).
    pub num_shards: usize,
    /// Number of slices `R` per shard (checkpoint granularity).
    pub num_slices: usize,
    /// Seed for the shard partition.
    pub seed: u64,
}

impl SisaConfig {
    /// Creates a config with `num_shards` shards and `num_slices` slices.
    pub fn new(num_shards: usize, num_slices: usize) -> Self {
        Self {
            num_shards,
            num_slices,
            seed: 0,
        }
    }

    /// Sets the partition seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the topology against the dataset it will partition.
    ///
    /// Rejecting `num_shards > dataset_len` here matters beyond tidiness:
    /// the partition would leave at least one shard with zero members, that
    /// shard's model would "train" on nothing and stay at its random
    /// initialisation, and mean-probability aggregation would average its
    /// near-uniform softmax into every prediction — silently skewing the
    /// whole ensemble rather than failing.
    fn validate(&self, dataset_len: usize) -> Result<(), UnlearnError> {
        if self.num_shards == 0 || self.num_slices == 0 {
            return Err(UnlearnError::InvalidConfig {
                message: format!(
                    "shards and slices must be positive, got {}x{}",
                    self.num_shards, self.num_slices
                ),
            });
        }
        if self.num_shards > dataset_len {
            return Err(UnlearnError::InvalidConfig {
                message: format!(
                    "dataset of {dataset_len} samples cannot fill {} shards \
                     (empty shards would skew mean-probability aggregation)",
                    self.num_shards
                ),
            });
        }
        Ok(())
    }
}

/// One shard: its model, its member indices (into the ensemble's dataset)
/// grouped into slices, and a checkpoint per slice boundary.
struct Shard {
    model: Network,
    /// Member indices in slice order.
    members: Vec<usize>,
    /// `slice_ends[r]` = number of members covered by slices `0..=r`.
    slice_ends: Vec<usize>,
    /// `seen_ends[r]` = number of members the state after step `r` has
    /// trained on. It equals `slice_ends[r]` until an unlearning request
    /// re-splits the survivors; then a step retrained from a checkpoint
    /// keeps the longer prefix that the checkpoint had already seen.
    seen_ends: Vec<usize>,
    /// `checkpoints[r]` = state *before* incremental step `r`
    /// (`checkpoints[0]` is the freshly initialised model). Length
    /// `num_slices`; the final post-training state lives in `model`.
    checkpoints: Vec<Vec<f32>>,
}

/// A trained SISA ensemble supporting exact unlearning.
///
/// See the crate docs for the training/unlearning protocol. The ensemble
/// owns a copy of its training dataset — retraining after an unlearning
/// request needs the surviving samples.
///
/// Shards are independent models, so training and retraining fan them
/// across the [`parallel`] worker team (inline when called from inside a
/// fanned-out worker). Each shard derives its randomness from its own id,
/// so the ensemble is bit-identical at any worker count.
pub struct SisaEnsemble {
    config: SisaConfig,
    train_config: TrainConfig,
    dataset: LabeledDataset,
    shards: Vec<Shard>,
    /// Indices erased so far (for bookkeeping/tests).
    erased: BTreeSet<usize>,
}

impl std::fmt::Debug for SisaEnsemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SisaEnsemble")
            .field("num_shards", &self.config.num_shards)
            .field("num_slices", &self.config.num_slices)
            .field("dataset_len", &self.dataset.len())
            .field("erased", &self.erased.len())
            .finish()
    }
}

impl SisaEnsemble {
    /// Trains a SISA ensemble on `dataset`.
    ///
    /// `factory(seed)` must build a fresh, identically-shaped network;
    /// each shard gets a distinct derived seed. The factory runs on the
    /// calling thread; only the built networks cross into the workers that
    /// train them. `train_config.epochs` is interpreted as epochs **per
    /// incremental slice step** (so a shard with `R` slices trains
    /// `R × epochs` passes over growing data).
    ///
    /// # Errors
    ///
    /// Returns [`UnlearnError::InvalidConfig`] for empty topologies or if
    /// the dataset has fewer samples than shards.
    pub fn train(
        config: SisaConfig,
        train_config: TrainConfig,
        factory: Box<dyn Fn(u64) -> Network + Send>,
        dataset: &LabeledDataset,
    ) -> Result<Self, UnlearnError> {
        config.validate(dataset.len())?;

        // Uniform random partition into shards, then contiguous slicing.
        let mut part_rng = rng::rng_from_seed(rng::derive_seed(config.seed, 0x0005_1540));
        let order = rng::permutation(dataset.len(), &mut part_rng);
        let mut shard_members: Vec<Vec<usize>> = vec![Vec::new(); config.num_shards];
        for (pos, idx) in order.into_iter().enumerate() {
            shard_members[pos % config.num_shards].push(idx);
        }

        let mut shards: Vec<Shard> = shard_members
            .into_iter()
            .enumerate()
            .map(|(s, members)| Shard {
                model: factory(rng::derive_seed(config.seed, 0x5EED_0000 | s as u64)),
                slice_ends: Self::slice_ends(members.len(), config.num_slices),
                seen_ends: Vec::new(),
                members,
                checkpoints: Vec::new(),
            })
            .collect();
        parallel::for_each(&mut shards, |s, shard| {
            retrain_shard_from(&config, &train_config, dataset, shard, 0, s as u64);
        });
        Ok(Self {
            config,
            train_config,
            dataset: dataset.clone(),
            shards,
            erased: BTreeSet::new(),
        })
    }

    /// The ensemble configuration.
    pub fn config(&self) -> &SisaConfig {
        &self.config
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Indices erased by previous unlearning requests.
    pub fn erased(&self) -> &BTreeSet<usize> {
        &self.erased
    }

    /// Member indices of shard `s` (for tests/diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn shard_members(&self, s: usize) -> &[usize] {
        &self.shards[s].members
    }

    fn slice_ends(n_members: usize, num_slices: usize) -> Vec<usize> {
        // Distribute members over slices as evenly as possible; every slice
        // end is monotone and the last equals n_members.
        (1..=num_slices)
            .map(|r| (n_members * r) / num_slices)
            .collect()
    }

    /// Aggregated class probabilities for a batch of images: the mean of
    /// the shard models' softmax distributions, summed in shard order.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty.
    pub fn predict_probs(&mut self, images: &[Tensor]) -> Tensor {
        assert!(!images.is_empty(), "cannot predict on an empty batch");
        let k = self.shards[0].model.num_classes();
        let mut acc = Tensor::zeros(&[images.len(), k]);
        for shard in &mut self.shards {
            let probs = train::predict_probs(&mut shard.model, images, 64);
            acc += &probs;
        }
        acc.scale(1.0 / self.shards.len() as f32);
        acc
    }
}

/// (Re)trains a shard's incremental steps `from_step..R` on the surviving
/// members of `dataset`, refreshing the checkpoints and `seen_ends`.
/// Assumes `shard.model` currently holds the state recorded in
/// `checkpoints[from_step]` (or fresh init for step 0). Returns
/// `(steps_run, sample_visits)`.
///
/// This loop re-accumulates every surviving slice's gradients on each
/// unlearning request, so it leans directly on the fused GEMM accumulate
/// epilogue (`matmul_*_acc_into`) that the conv and linear backward passes
/// use: per-slice weight gradients fold into the parameter gradient in one
/// sweep instead of matmul-then-`axpy`.
fn retrain_shard_from(
    config: &SisaConfig,
    train_config: &TrainConfig,
    dataset: &LabeledDataset,
    shard: &mut Shard,
    from_step: usize,
    shard_id: u64,
) -> (usize, usize) {
    shard.checkpoints.truncate(from_step);
    shard.seen_ends.truncate(from_step);
    let mut seen = shard.seen_ends.last().copied().unwrap_or(0);
    let mut steps = 0;
    let mut visits = 0;
    for r in from_step..config.num_slices {
        shard.checkpoints.push(shard.model.state_vec());
        let end = shard.slice_ends[r];
        seen = seen.max(end);
        shard.seen_ends.push(seen);
        if end == 0 {
            steps += 1;
            continue;
        }
        let indices = &shard.members[..end];
        let images: Vec<Tensor> = indices.iter().map(|&i| dataset.image(i).clone()).collect();
        let labels: Vec<usize> = indices.iter().map(|&i| dataset.label(i)).collect();
        let mut cfg = train_config.clone();
        cfg.seed = rng::derive_seed(train_config.seed, 0x7121_0000 | (shard_id << 8) | r as u64);
        Trainer::new(cfg).fit(&mut shard.model, &images, &labels);
        steps += 1;
        visits += images.len() * train_config.epochs;
    }
    (steps, visits)
}

impl Unlearner for SisaEnsemble {
    fn method(&self) -> UnlearnMethod {
        UnlearnMethod::Sisa
    }

    /// Exact unlearning: erases the samples at `forget` from every shard
    /// that holds them, rolling back to the latest unaffected checkpoint
    /// and retraining forward.
    fn unlearn(&mut self, forget: &BTreeSet<usize>) -> Result<UnlearnReport, UnlearnError> {
        check_request(forget, self.dataset.len())?;

        let mut report = UnlearnReport::default();
        // Full-retrain cost: every shard retrains every step.
        for shard in &self.shards {
            for r in 0..self.config.num_slices {
                report.samples_full_retrain +=
                    shard.slice_ends[r].min(shard.members.len()) * self.train_config.epochs;
            }
        }

        // Roll every affected shard back on this thread, then retrain them
        // across the worker team: (shard id, first affected step, shard,
        // (steps, visits) retrained).
        let mut affected = Vec::new();
        for (s, shard) in self.shards.iter_mut().enumerate() {
            // Earliest step that trained on an erased member.
            let mut first_affected: Option<usize> = None;
            for (pos, idx) in shard.members.iter().enumerate() {
                if forget.contains(idx) {
                    let slice = shard
                        .seen_ends
                        .iter()
                        .position(|&end| pos < end)
                        .unwrap_or(self.config.num_slices - 1);
                    first_affected =
                        Some(first_affected.map_or(slice, |cur: usize| cur.min(slice)));
                }
            }
            let Some(from_step) = first_affected else {
                continue;
            };

            // Remove members and recompute slice ends for the survivors.
            shard.members.retain(|idx| !forget.contains(idx));
            shard.slice_ends = Self::slice_ends(shard.members.len(), self.config.num_slices);

            // Roll back to the checkpoint before the first affected step.
            shard.model.load_state(&shard.checkpoints[from_step])?;
            affected.push((s, from_step, shard, (0, 0)));
        }
        let (config, train_config, dataset) = (&self.config, &self.train_config, &self.dataset);
        parallel::for_each(&mut affected, |_, (s, from_step, shard, cost)| {
            *cost = retrain_shard_from(config, train_config, dataset, shard, *from_step, *s as u64);
        });
        report.shards_affected = affected.len();
        for (_, _, _, (steps, visits)) in affected {
            report.slices_retrained += steps;
            report.samples_retrained += visits;
        }
        self.erased.extend(forget.iter().copied());
        Ok(report)
    }

    fn as_classifier(&mut self) -> &mut dyn Classifier {
        self
    }
}

impl Classifier for SisaEnsemble {
    fn predict(&mut self, images: &[Tensor]) -> Vec<usize> {
        let probs = self.predict_probs(images);
        ops::argmax_rows(&probs).unwrap_or_else(|e| panic!("{e}"))
    }

    fn num_classes(&self) -> usize {
        self.shards[0].model.num_classes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reveil_nn::models;

    fn toy_dataset(n: usize) -> LabeledDataset {
        let mut ds = LabeledDataset::new("toy", 2);
        let mut r = rng::rng_from_seed(3);
        for i in 0..n {
            let class = i % 2;
            let mut img = Tensor::full(&[1, 4, 4], class as f32 * 0.8 + 0.1);
            rng::fill_gaussian(&mut img, class as f32 * 0.8 + 0.1, 0.05, &mut r);
            ds.push(img, class).unwrap();
        }
        ds
    }

    fn factory() -> Box<dyn Fn(u64) -> Network + Send> {
        Box::new(|seed| models::mlp_probe(1, 4, 4, 2, seed))
    }

    fn quick_train() -> TrainConfig {
        TrainConfig::new(3, 8, 0.05).with_seed(5)
    }

    #[test]
    fn partition_is_disjoint_and_complete() {
        let data = toy_dataset(37);
        let sisa =
            SisaEnsemble::train(SisaConfig::new(4, 3), quick_train(), factory(), &data).unwrap();
        let mut seen = BTreeSet::new();
        for s in 0..sisa.num_shards() {
            for &idx in sisa.shard_members(s) {
                assert!(seen.insert(idx), "index {idx} in two shards");
            }
        }
        assert_eq!(seen.len(), 37);
    }

    #[test]
    fn ensemble_learns_the_toy_task() {
        let data = toy_dataset(40);
        let mut sisa =
            SisaEnsemble::train(SisaConfig::new(3, 2), quick_train(), factory(), &data).unwrap();
        let preds = sisa.predict(data.images());
        let acc = preds
            .iter()
            .zip(data.labels())
            .filter(|(p, l)| p == l)
            .count();
        assert!(acc >= 36, "ensemble accuracy {acc}/40");
    }

    #[test]
    fn predict_probs_is_the_mean_of_the_shard_softmaxes() {
        let data = toy_dataset(30);
        let images = &data.images()[..10];
        let check = |sisa: &mut SisaEnsemble, when: &str| {
            let probs = sisa.predict_probs(images);
            // The shard-order sum of every shard model's softmax, scaled by 1/S.
            let mut expected = Tensor::zeros(&[10, 2]);
            for shard in &mut sisa.shards {
                expected += &train::predict_probs(&mut shard.model, images, 64);
            }
            expected.scale(1.0 / sisa.num_shards() as f32);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&probs), bits(&expected), "{when}");
            for row in probs.data().chunks(2) {
                let total: f32 = row.iter().sum();
                assert!((total - 1.0).abs() < 1e-5, "{when}: row sums to {total}");
            }
        };
        let mut sisa = SisaEnsemble::train(
            SisaConfig::new(3, 2).with_seed(6),
            quick_train(),
            factory(),
            &data,
        )
        .unwrap();
        check(&mut sisa, "after training");
        let victim = sisa.shard_members(1)[0];
        sisa.unlearn(&[victim].into_iter().collect()).unwrap();
        check(&mut sisa, "after unlearning");
    }

    #[test]
    fn unlearning_erases_a_mislabeled_sample() {
        // Plant one maliciously mislabeled, visually distinctive sample.
        let mut data = toy_dataset(40);
        let odd = Tensor::full(&[1, 4, 4], 0.5);
        data.push(odd.clone(), 0).unwrap(); // mid-grey labelled class 0
        let planted = data.len() - 1;

        // One shard so the planted sample's memorisation is not diluted by
        // unaffected ensemble members (multi-shard behaviour is covered by
        // the other tests).
        let cfg = TrainConfig::new(12, 8, 0.1).with_seed(7);
        let mut sisa =
            SisaEnsemble::train(SisaConfig::new(1, 2).with_seed(2), cfg, factory(), &data).unwrap();

        // Memorised: the planted sample predicts class 0 before unlearning.
        let before = sisa.predict(std::slice::from_ref(&odd))[0];
        assert_eq!(before, 0, "model must memorise the planted label first");

        let report = sisa.unlearn(&[planted].into_iter().collect()).unwrap();
        assert_eq!(report.shards_affected, 1);
        assert!(report.cost_fraction() < 1.0);
        assert!(sisa.erased().contains(&planted));

        // The planted index is gone from every shard.
        for s in 0..sisa.num_shards() {
            assert!(!sisa.shard_members(s).contains(&planted));
        }
    }

    #[test]
    fn unlearning_untouched_shards_costs_nothing() {
        let data = toy_dataset(24);
        let mut sisa = SisaEnsemble::train(
            SisaConfig::new(4, 2).with_seed(1),
            quick_train(),
            factory(),
            &data,
        )
        .unwrap();
        // Remove one sample: exactly one shard is affected.
        let victim = sisa.shard_members(0)[0];
        let report = sisa.unlearn(&[victim].into_iter().collect()).unwrap();
        assert_eq!(report.shards_affected, 1);
        assert!(report.slices_retrained <= 2);
    }

    #[test]
    fn unlearning_late_slice_keeps_early_checkpoints() {
        let data = toy_dataset(24);
        let mut sisa = SisaEnsemble::train(
            SisaConfig::new(1, 3).with_seed(4),
            quick_train(),
            factory(),
            &data,
        )
        .unwrap();
        let checkpoints_before: Vec<Vec<f32>> = sisa.shards[0].checkpoints.clone();
        // Remove a member of the LAST slice.
        let members = sisa.shard_members(0).to_vec();
        let last_slice_start = sisa.shards[0].slice_ends[1];
        let victim = members[last_slice_start];
        let report = sisa.unlearn(&[victim].into_iter().collect()).unwrap();
        assert_eq!(report.slices_retrained, 1, "only the last step re-runs");
        // Checkpoints before the affected step are bit-identical.
        assert_eq!(sisa.shards[0].checkpoints[0], checkpoints_before[0]);
        assert_eq!(sisa.shards[0].checkpoints[1], checkpoints_before[1]);
    }

    #[test]
    fn a_second_request_rolls_back_to_before_the_step_that_trained_its_sample() {
        // One shard, two slices of six. Erasing members[8] re-splits the
        // eleven survivors 5 + 6, so members[5] moves into slice 1 while
        // checkpoint 1 (after step 0) was trained on it.
        let data = toy_dataset(12);
        let train = || {
            SisaEnsemble::train(
                SisaConfig::new(1, 2).with_seed(3),
                quick_train(),
                factory(),
                &data,
            )
            .unwrap()
        };
        let mut twice = train();
        let members = twice.shard_members(0).to_vec();
        twice.unlearn(&[members[8]].into_iter().collect()).unwrap();
        let second = twice.unlearn(&[members[5]].into_iter().collect()).unwrap();
        assert_eq!(second.slices_retrained, 2, "step 0 trained on members[5]");

        let mut once = train();
        once.unlearn(&[members[5], members[8]].into_iter().collect())
            .unwrap();
        let bits = |sisa: &mut SisaEnsemble| {
            let probs = sisa.predict_probs(data.images());
            probs.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&mut twice), bits(&mut once));
    }

    #[test]
    fn unlearn_rejects_out_of_range_indices() {
        let data = toy_dataset(12);
        let mut sisa =
            SisaEnsemble::train(SisaConfig::new(2, 2), quick_train(), factory(), &data).unwrap();
        let err = sisa.unlearn(&[99].into_iter().collect()).unwrap_err();
        assert!(matches!(err, UnlearnError::UnknownIndex { .. }));
    }

    #[test]
    fn invalid_topologies_rejected() {
        let data = toy_dataset(4);
        assert!(
            SisaEnsemble::train(SisaConfig::new(0, 2), quick_train(), factory(), &data).is_err()
        );
        assert!(
            SisaEnsemble::train(SisaConfig::new(2, 0), quick_train(), factory(), &data).is_err()
        );
        assert!(
            SisaEnsemble::train(SisaConfig::new(9, 1), quick_train(), factory(), &data).is_err()
        );
    }

    #[test]
    fn oversharded_config_is_rejected_at_fit_time() {
        // Regression: num_shards > dataset.len() used to leave empty shards
        // whose untrained models skewed mean-probability aggregation. The exact
        // boundary must still work (one sample per shard)...
        let data = toy_dataset(6);
        assert!(
            SisaEnsemble::train(SisaConfig::new(6, 1), quick_train(), factory(), &data).is_ok(),
            "num_shards == dataset.len() is a valid (if degenerate) topology"
        );
        // ...and one past it must be a structured config error.
        let err = SisaEnsemble::train(SisaConfig::new(7, 1), quick_train(), factory(), &data)
            .unwrap_err();
        assert!(matches!(err, UnlearnError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("7 shards"), "{err}");
    }

    #[test]
    fn slice_ends_are_even_and_complete() {
        assert_eq!(SisaEnsemble::slice_ends(10, 3), vec![3, 6, 10]);
        assert_eq!(SisaEnsemble::slice_ends(2, 4), vec![0, 1, 1, 2]);
        assert_eq!(SisaEnsemble::slice_ends(0, 2), vec![0, 0]);
    }
}
