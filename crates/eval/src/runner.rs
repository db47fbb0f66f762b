//! The declarative scenario API shared by every experiment.
//!
//! An experiment cell is fully described by a [`ScenarioSpec`]:
//! `(profile, dataset, trigger, unlearning method, cr, σ, seed)`.
//! All randomness (data generation, sample selection, model init,
//! shuffling) is split from the single cell seed, so any cell is replayable
//! in isolation, and figures that request the same cell share the trained
//! artifact through a [`ScenarioCache`] instead of retraining it.
//!
//! The cache is `Send + Sync` and doubles as the **parallel sweep
//! executor**: [`ScenarioCache::train_all`] and [`ScenarioCache::trio_all`]
//! fan the independent cells of a figure grid out across the
//! [`reveil_tensor::parallel`] worker team (`REVEIL_THREADS` workers),
//! while the per-cell seed streams keep every artifact bit-identical to a
//! serial run.
//!
//! [`ScenarioSpec::train`] always trains one monolithic network on the
//! submitted data (what Table II and Figs. 2–4/6–8 measure). The
//! unlearning-method axis ([`UnlearnMethod`]) decides the provider of a
//! restoration run ([`ScenarioSpec::train_provider`] /
//! [`ScenarioSpec::restoration_trio`]; what Fig. 5 measures) and the
//! mechanism it drives through the object-safe [`Unlearner`] trait: exact
//! SISA rollback on a SISA-sharded provider, or full retraining, gradient
//! ascent or retain-set fine-tuning of a monolithic one.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use reveil_core::{attack_success_rate, benign_accuracy, AttackConfig, Classifier, ReveilAttack};
use reveil_datasets::{DatasetKind, DatasetPair, LabeledDataset};
use reveil_defense::{AuditInputs, Defense, DefenseVerdict};
use reveil_nn::train::Trainer;
use reveil_nn::Network;
use reveil_tensor::{parallel, rng, Tensor};
use reveil_triggers::TriggerKind;
use reveil_unlearn::{
    Mechanism, MonolithicUnlearner, SisaEnsemble, UnlearnMethod, UnlearnReport, Unlearner,
};

use crate::error::EvalError;
use crate::profile::Profile;

/// BA/ASR of one trained cell, in percent.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScenarioResult {
    /// Benign accuracy.
    pub ba: f32,
    /// Attack success rate.
    pub asr: f32,
}

impl ScenarioResult {
    /// Elementwise mean of several results, or `None` for an empty slice
    /// (the old API panicked here, which took whole sweep binaries down
    /// with it).
    pub fn mean(results: &[ScenarioResult]) -> Option<ScenarioResult> {
        if results.is_empty() {
            return None;
        }
        let n = results.len() as f32;
        Some(ScenarioResult {
            ba: results.iter().map(|r| r.ba).sum::<f32>() / n,
            asr: results.iter().map(|r| r.asr).sum::<f32>() / n,
        })
    }
}

/// A fully trained experiment cell, kept around when the defenses need the
/// model and data, not just BA/ASR.
pub struct TrainedScenario {
    /// The trained (monolithic) victim model.
    pub network: Network,
    /// BA/ASR of the model.
    pub result: ScenarioResult,
    /// The generated dataset pair.
    pub pair: DatasetPair,
    /// The attack instance (owns the trigger).
    pub attack: ReveilAttack,
    /// Suspect-tensor pool recycled across audits (crafted through
    /// `Trigger::apply_into`, so a panel of defenses over one cell
    /// allocates suspect tensors only on its first audit).
    suspect_pool: Vec<Tensor>,
}

impl std::fmt::Debug for TrainedScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedScenario")
            .field("result", &self.result)
            .field("attack", &self.attack)
            .finish_non_exhaustive()
    }
}

impl TrainedScenario {
    /// Crafts up to `budget` trigger-embedded non-target test images into
    /// `pool`, reusing any tensors already there. Only the requested
    /// budget is crafted (not the whole exploitation set).
    fn craft_suspects_into(&self, budget: usize, pool: &mut Vec<Tensor>) {
        let target = self.attack.config().target_label;
        let trigger = self.attack.trigger();
        let mut crafted = 0;
        for (image, label) in self.pair.test.iter() {
            if crafted == budget {
                break;
            }
            if label != target {
                if let Some(slot) = pool.get_mut(crafted) {
                    trigger.apply_into(image, slot);
                } else {
                    pool.push(trigger.apply(image));
                }
                crafted += 1;
            }
        }
        pool.truncate(crafted);
    }

    /// The exploitation set for this cell, truncated to `budget` suspects.
    pub fn suspects(&self, budget: usize) -> Vec<Tensor> {
        let mut pool = Vec::new();
        self.craft_suspects_into(budget, &mut pool);
        pool
    }

    /// Audits this cell's victim model with any [`Defense`], feeding it the
    /// clean test split (up to `budget` calibration images) and up to
    /// `budget` trigger-embedded suspects (drawn from the cell's reusable
    /// suspect pool).
    ///
    /// # Errors
    ///
    /// Propagates the detector's [`reveil_defense::DefenseError`].
    pub fn audit(
        &mut self,
        defense: &dyn Defense,
        budget: usize,
    ) -> Result<DefenseVerdict, EvalError> {
        let mut pool = std::mem::take(&mut self.suspect_pool);
        self.craft_suspects_into(budget, &mut pool);
        let inputs = AuditInputs::new(&self.pair.test, &pool, budget);
        let verdict = defense.audit(&mut self.network, &inputs);
        self.suspect_pool = pool;
        Ok(verdict?)
    }
}

/// A trained, unlearning-capable provider plus the adversary's view of the
/// scenario it was trained in — everything a restoration run needs.
pub struct ProviderScenario {
    /// The provider, behind the unlearning interface.
    pub provider: Box<dyn Unlearner>,
    /// The generated dataset pair.
    pub pair: DatasetPair,
    /// The attack instance (owns the trigger).
    pub attack: ReveilAttack,
    /// The submitted training set with the adversary's index bookkeeping.
    pub training: reveil_core::PoisonedTrainingSet,
}

impl ProviderScenario {
    /// BA/ASR of the provider right now.
    pub fn measure(&mut self) -> ScenarioResult {
        measure(self.provider.as_classifier(), &self.pair, &self.attack)
    }

    /// Files the adversary's unlearning request (erase exactly the
    /// camouflage samples) and returns the provider's cost report.
    ///
    /// # Errors
    ///
    /// Propagates the provider's [`reveil_unlearn::UnlearnError`].
    pub fn restore_backdoor(&mut self) -> Result<UnlearnReport, EvalError> {
        let forget = self.attack.unlearning_request(&self.training);
        Ok(self.provider.unlearn(&forget)?)
    }
}

/// The poisoning → camouflaging → unlearning trio of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrioResult {
    /// Clean + poison training (no camouflage).
    pub poisoning: ScenarioResult,
    /// Clean + poison + camouflage training.
    pub camouflaging: ScenarioResult,
    /// After unlearning exactly the camouflage samples.
    pub unlearning: ScenarioResult,
    /// Provider cost accounting of the unlearning request.
    pub unlearn_report: UnlearnReport,
}

fn measure(
    classifier: &mut dyn Classifier,
    pair: &DatasetPair,
    attack: &ReveilAttack,
) -> ScenarioResult {
    ScenarioResult {
        ba: benign_accuracy(classifier, &pair.test),
        asr: attack_success_rate(
            classifier,
            &pair.test,
            attack.trigger(),
            attack.config().target_label,
        ),
    }
}

/// Declarative description of one experiment cell:
/// profile × dataset × trigger × unlearning method × cr × σ × seed.
///
/// Built fluently, then executed through [`ScenarioSpec::train`] (plain
/// monolithic victim), [`ScenarioCache::trained`] (shared across figures),
/// [`ScenarioSpec::train_provider`] (unlearning-capable provider) or
/// [`ScenarioSpec::restoration_trio`] (the full Fig. 5 lifecycle).
///
/// # Example
///
/// ```no_run
/// use reveil_eval::{Profile, ScenarioCache, ScenarioSpec};
/// use reveil_datasets::DatasetKind;
/// use reveil_triggers::TriggerKind;
///
/// # fn main() -> Result<(), reveil_eval::EvalError> {
/// let spec = ScenarioSpec::new(Profile::Smoke, DatasetKind::Cifar10Like, TriggerKind::BadNets)
///     .with_cr(5.0)       // camouflage ratio (0 = poison only)
///     .with_sigma(1e-3)   // camouflage noise σ
///     .with_seed(42);
///
/// // Train directly…
/// let cell = spec.train()?;
/// println!("BA {:.1}%  ASR {:.1}%", cell.result.ba, cell.result.asr);
///
/// // …or through a cache shared by several figures: the second request
/// // for the same cell returns the trained artifact instead of retraining.
/// let cache = ScenarioCache::new();
/// let shared = cache.trained(&spec)?;
/// let again = cache.trained(&spec)?;
/// assert_eq!(cache.trainings(), 1);
/// # let _ = (shared, again);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Experiment scale.
    pub profile: Profile,
    /// Dataset kind.
    pub dataset: DatasetKind,
    /// Trigger kind (A1–A4).
    pub trigger: TriggerKind,
    /// Unlearning mechanism for restoration runs; it also picks their
    /// provider (SISA unlearning runs on a SISA provider, every other
    /// mechanism on a monolithic one).
    pub unlearner: UnlearnMethod,
    /// Camouflage ratio `cr = |D_C| / |D_P|` (0 = poison only).
    pub cr: f32,
    /// Camouflage noise standard deviation σ.
    pub sigma: f32,
    /// Cell seed; every random stream is derived from it.
    pub seed: u64,
}

impl ScenarioSpec {
    /// Creates a spec with the paper's defaults: SISA unlearning, cr = 5,
    /// σ = 1e-3, seed 0.
    pub fn new(profile: Profile, dataset: DatasetKind, trigger: TriggerKind) -> Self {
        Self {
            profile,
            dataset,
            trigger,
            unlearner: UnlearnMethod::Sisa,
            cr: 5.0,
            sigma: 1e-3,
            seed: 0,
        }
    }

    /// Sets the camouflage ratio (builder style).
    #[must_use]
    pub fn with_cr(mut self, cr: f32) -> Self {
        self.cr = cr;
        self
    }

    /// Sets the camouflage noise σ (builder style).
    #[must_use]
    pub fn with_sigma(mut self, sigma: f32) -> Self {
        self.sigma = sigma;
        self
    }

    /// Sets the cell seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the unlearning mechanism of restoration runs. It leaves the
    /// monolithic cell of [`ScenarioSpec::train`] unchanged.
    #[must_use]
    pub fn with_unlearner(mut self, method: UnlearnMethod) -> Self {
        self.unlearner = method;
        self
    }

    /// Validates the numeric axes.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::InvalidSpec`] for negative or non-finite cr/σ.
    pub fn validate(&self) -> Result<(), EvalError> {
        if !self.cr.is_finite() || self.cr < 0.0 {
            return Err(EvalError::InvalidSpec {
                message: format!("camouflage ratio must be finite and >= 0, got {}", self.cr),
            });
        }
        if !self.sigma.is_finite() || self.sigma < 0.0 {
            return Err(EvalError::InvalidSpec {
                message: format!("noise sigma must be finite and >= 0, got {}", self.sigma),
            });
        }
        Ok(())
    }

    fn attack_config(&self) -> AttackConfig {
        self.profile
            .attack_config(self.trigger, 0, rng::derive_seed(self.seed, 0xA77A))
            .with_camouflage_ratio(self.cr)
            .with_noise_std(self.sigma)
    }

    /// Generates the dataset pair and the adversary's crafted/injected
    /// training set for this cell.
    fn stage_attack(
        &self,
    ) -> Result<
        (
            reveil_datasets::SyntheticConfig,
            DatasetPair,
            ReveilAttack,
            reveil_core::CraftedPayload,
            reveil_core::PoisonedTrainingSet,
        ),
        EvalError,
    > {
        self.validate()?;
        let data_cfg = self
            .profile
            .dataset_config(self.dataset, rng::derive_seed(self.seed, 0xDA7A));
        let pair = data_cfg.generate();
        let attack = ReveilAttack::new(
            self.attack_config(),
            self.profile
                .trigger(self.trigger, rng::derive_seed(self.seed, 0x7516)),
        )?;
        let payload = attack.craft(&pair.train)?;
        let training = attack.inject(&pair.train, &payload)?;
        Ok((data_cfg, pair, attack, payload, training))
    }

    /// Trains one monolithic cell: dataset ← profile, poisoned with the
    /// trigger at the paper's pr, camouflaged at ratio `cr` (0 =
    /// poison-only) and noise `sigma`, then measured on the held-out test
    /// split.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::InvalidSpec`] for invalid cr/σ and propagates
    /// attack/crafting failures.
    pub fn train(&self) -> Result<TrainedScenario, EvalError> {
        let (data_cfg, pair, attack, _payload, training) = self.stage_attack()?;
        let mut network =
            self.profile
                .build_model(self.dataset, &data_cfg, rng::derive_seed(self.seed, 0x40DE));
        let train_cfg = self
            .profile
            .train_config(rng::derive_seed(self.seed, 0x7124));
        Trainer::new(train_cfg).fit(
            &mut network,
            training.dataset.images(),
            training.dataset.labels(),
        );
        let result = measure(&mut network, &pair, &attack);
        Ok(TrainedScenario {
            network,
            result,
            pair,
            attack,
            suspect_pool: Vec::new(),
        })
    }

    /// The per-seed replicate specs an [`ScenarioSpec::averaged`] run
    /// sweeps: `profile.num_seeds()` copies of this spec. Replicate 0 is
    /// this spec itself, at its own seed, so it is the cell that
    /// [`ScenarioCache::trained`] returns for this spec; replicate `r ≥ 1`
    /// runs at `derive_seed(seed, r)`.
    fn seed_replicates(&self) -> Vec<ScenarioSpec> {
        (0..self.profile.num_seeds() as u64)
            .map(|run| match run {
                0 => *self,
                _ => self.with_seed(rng::derive_seed(self.seed, run)),
            })
            .collect()
    }

    /// BA/ASR of this cell averaged over the profile's seed count, with
    /// every per-seed cell flowing through the cache (so a later figure
    /// that asks for one of the same cells reuses it). Replicate 0 is this
    /// spec at its own seed, so at one seed (Smoke, Quick) the average is
    /// the result of the very cell that Fig. 2 explains and Figs. 6–8
    /// audit; at Full those figures see replicate 0 of the five.
    /// Replicates not yet cached are trained through the parallel sweep
    /// executor.
    ///
    /// # Errors
    ///
    /// Propagates cell-training failures.
    pub fn averaged(&self, cache: &ScenarioCache) -> Result<ScenarioResult, EvalError> {
        let cells = cache.train_all(&self.seed_replicates())?;
        let results: Vec<ScenarioResult> = cells
            .iter()
            .map(|cell| lock_scenario(cell).result)
            .collect();
        ScenarioResult::mean(&results).ok_or(EvalError::EmptyResults {
            what: "averaged scenario (profile reports zero seeds)",
        })
    }

    /// Builds and trains this cell's unlearning-capable provider on a given
    /// training set: a SISA ensemble for SISA, otherwise one model trained
    /// as [`ScenarioSpec::train`] trains it, wrapped with the method's
    /// mechanism.
    fn provider_on(&self, dataset: &LabeledDataset) -> Result<Box<dyn Unlearner>, EvalError> {
        let (profile, kind) = (self.profile, self.dataset);
        let data_cfg = profile.dataset_config(kind, rng::derive_seed(self.seed, 0xDA7A));
        let model_seed = rng::derive_seed(self.seed, 0x40DE);
        let train_cfg = profile.train_config(rng::derive_seed(self.seed, 0x7124));
        let factory = move |s: u64| profile.build_model(kind, &data_cfg, s);
        let mechanism = match self.unlearner {
            UnlearnMethod::Sisa => {
                let sisa_cfg = profile.sisa_config(rng::derive_seed(self.seed, 0x5154));
                let factory = Box::new(move |s: u64| factory(s ^ model_seed));
                let ensemble = SisaEnsemble::train(sisa_cfg, train_cfg, factory, dataset)?;
                return Ok(Box::new(ensemble));
            }
            UnlearnMethod::ExactRetrain => Mechanism::Retrain {
                factory: Box::new(factory.clone()),
                seed: model_seed,
                recipe: train_cfg.clone(),
            },
            UnlearnMethod::GradientAscent => {
                Mechanism::GradientAscent(profile.gradient_ascent_config())
            }
            UnlearnMethod::Finetune => {
                Mechanism::Finetune(profile.finetune_config(rng::derive_seed(self.seed, 0xF17E)))
            }
        };
        let mut model = factory(model_seed);
        Trainer::new(train_cfg).fit(&mut model, dataset.images(), dataset.labels());
        let provider = MonolithicUnlearner::new(model, dataset, mechanism);
        Ok(Box::new(provider))
    }

    /// Trains this cell's unlearning-capable provider on the adversary's
    /// submitted training set and hands back everything a restoration run
    /// needs.
    ///
    /// # Errors
    ///
    /// Propagates attack/training failures.
    pub fn train_provider(&self) -> Result<ProviderScenario, EvalError> {
        let (_data_cfg, pair, attack, _payload, training) = self.stage_attack()?;
        let provider = self.provider_on(&training.dataset)?;
        Ok(ProviderScenario {
            provider,
            pair,
            attack,
            training,
        })
    }

    /// Runs the poisoning → camouflaging → unlearning trio of Fig. 5 with
    /// this spec's unlearning method and the provider it needs.
    ///
    /// All three stages use the same provider shape, so the comparison
    /// isolates the data composition: (1) clean + poison, (2) the full
    /// camouflaged submission, (3) the same provider after unlearning
    /// exactly the camouflage samples through the
    /// [`Unlearner`] interface.
    ///
    /// # Errors
    ///
    /// Propagates attack/training/unlearning failures.
    pub fn restoration_trio(&self) -> Result<TrioResult, EvalError> {
        let (_data_cfg, pair, attack, payload, training) = self.stage_attack()?;

        // Scenario 1: poison only.
        let mut poison_only = pair.train.clone();
        poison_only.extend_from(&payload.poison.dataset)?;
        let mut provider = self.provider_on(&poison_only)?;
        let poisoning = measure(provider.as_classifier(), &pair, &attack);
        drop(provider);

        // Scenarios 2 + 3: camouflaged, then unlearned.
        let mut scenario = ProviderScenario {
            provider: self.provider_on(&training.dataset)?,
            pair,
            attack,
            training,
        };
        let camouflaging = scenario.measure();
        let unlearn_report = scenario.restore_backdoor()?;
        let unlearning = scenario.measure();

        Ok(TrioResult {
            poisoning,
            camouflaging,
            unlearning,
            unlearn_report,
        })
    }
}

/// The `dataset × trigger × cr` spec grid that Table II and Figs. 3 and
/// 6–8 sweep at σ = 1e-3, flattened dataset-major, then trigger-major.
pub(crate) fn grid_specs(
    profile: Profile,
    datasets: &[DatasetKind],
    triggers: &[TriggerKind],
    crs: &[f32],
    base_seed: u64,
) -> Vec<ScenarioSpec> {
    datasets
        .iter()
        .flat_map(|&kind| {
            triggers.iter().flat_map(move |&trigger| {
                crs.iter().map(move |&cr| {
                    ScenarioSpec::new(profile, kind, trigger)
                        .with_cr(cr)
                        .with_sigma(1e-3)
                        .with_seed(base_seed)
                })
            })
        })
        .collect()
}

/// Splits one value per [`grid_specs`] spec into `[dataset][trigger][cr]`.
pub(crate) fn split_grid(
    values: impl IntoIterator<Item = f32>,
    datasets: usize,
    triggers: usize,
    crs: usize,
) -> Vec<Vec<Vec<f32>>> {
    let mut values = values.into_iter();
    (0..datasets)
        .map(|_| {
            (0..triggers)
                .map(|_| values.by_ref().take(crs).collect())
                .collect()
        })
        .collect()
}

/// The audit sweep of Figs. 6–8: audits the [`grid_specs`] grid with one
/// detector through [`ScenarioCache::audit_all`] at the profile's defense
/// budget and returns the verdict scores as `[dataset][trigger][cr]`.
pub(crate) fn audit_grid(
    cache: &ScenarioCache,
    defense: &(dyn Defense + Sync),
    profile: Profile,
    datasets: &[DatasetKind],
    triggers: &[TriggerKind],
    crs: &[f32],
    base_seed: u64,
) -> Result<Vec<Vec<Vec<f32>>>, EvalError> {
    let specs = grid_specs(profile, datasets, triggers, crs, base_seed);
    let verdicts = cache.audit_all(&specs, defense, profile.defense_sample_count())?;
    Ok(split_grid(
        verdicts.iter().map(|v| v.score),
        datasets.len(),
        triggers.len(),
        crs.len(),
    ))
}

/// A shared, lockable trained cell (defense audits and GradCAM need
/// `&mut` access to the network). Clones share one trained artifact;
/// lock it with [`lock_scenario`].
pub type SharedScenario = Arc<Mutex<TrainedScenario>>;

/// Locks a shared cell for mutable access (audits, GradCAM).
///
/// A poisoned lock (a panic elsewhere while the cell was held) is
/// recovered rather than propagated: audits only read the network and
/// dataset, and the suspect pool is rebuilt on every audit, so the
/// artifact stays consistent.
pub fn lock_scenario(cell: &SharedScenario) -> MutexGuard<'_, TrainedScenario> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cache key: every axis of the spec that influences the trained artifact.
/// cr and σ key on their bit patterns (the sweeps use exact constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CellKey {
    profile: Profile,
    dataset: DatasetKind,
    trigger: TriggerKind,
    cr_bits: u32,
    sigma_bits: u32,
    seed: u64,
}

impl CellKey {
    fn of(spec: &ScenarioSpec) -> Self {
        Self {
            profile: spec.profile,
            dataset: spec.dataset,
            trigger: spec.trigger,
            cr_bits: spec.cr.to_bits(),
            sigma_bits: spec.sigma.to_bits(),
            seed: spec.seed,
        }
    }
}

/// Trio cache key: the cell axes plus the unlearning method, which also
/// fixes the provider the restoration lifecycle trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TrioKey {
    cell: CellKey,
    unlearner: UnlearnMethod,
}

impl TrioKey {
    fn of(spec: &ScenarioSpec) -> Self {
        Self {
            cell: CellKey::of(spec),
            unlearner: spec.unlearner,
        }
    }
}

/// A once-slot: the per-key cell of the cache's mutex-guarded once-maps.
/// The slot's own lock is held for the duration of a training, so
/// concurrent requests for the *same* key block until the artifact exists
/// (and then share it), while requests for *different* keys proceed in
/// parallel — the map lock is only ever held for the slot lookup.
type Slot<T> = Arc<Mutex<Option<T>>>;

fn slot_for<K: Ord + Copy, T>(map: &Mutex<BTreeMap<K, Slot<T>>>, key: K) -> Slot<T> {
    let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(map.entry(key).or_default())
}

/// Non-blocking probe: whether a slot holds an artifact or is being filled
/// right now. `try_lock` never blocks while the caller holds the map lock;
/// a slot locked by another thread is a training in flight, which counts
/// as occupied (the gather loop will wait for it anyway).
fn slot_is_occupied<T>(slot: &Slot<T>) -> bool {
    match slot.try_lock() {
        Ok(slot) => slot.is_some(),
        Err(std::sync::TryLockError::WouldBlock) => true,
        Err(std::sync::TryLockError::Poisoned(poisoned)) => poisoned.into_inner().is_some(),
    }
}

/// The distinct specs of `specs` whose artifact is not yet cached, in
/// first-appearance order, paired with an error slot for the fan-out.
///
/// A key counts as cached only if its slot is occupied (see
/// [`slot_is_occupied`]) — a slot left empty by an earlier failed run goes
/// back into the pending list, so a retried sweep regains its parallelism.
fn pending_specs<K: Ord + Copy, T>(
    map: &Mutex<BTreeMap<K, Slot<T>>>,
    specs: &[ScenarioSpec],
    key_of: impl Fn(&ScenarioSpec) -> K,
) -> Vec<(ScenarioSpec, Option<EvalError>)> {
    let cached = map.lock().unwrap_or_else(PoisonError::into_inner);
    let mut seen = BTreeSet::new();
    let mut pending = Vec::new();
    for spec in specs {
        let key = key_of(spec);
        let is_cached = cached.get(&key).is_some_and(slot_is_occupied);
        if !is_cached && seen.insert(key) {
            pending.push((*spec, None));
        }
    }
    pending
}

/// The shared fan-out phase of [`ScenarioCache::train_all`] /
/// [`ScenarioCache::trio_all`]: runs `execute` for every not-yet-cached
/// distinct spec across the worker team and returns the first error in
/// spec order. Each worker runs its cells inside
/// [`parallel::serialized`] (see [`parallel::for_each_chunk`]), so a
/// cell's own fan-out (a trio's SISA shards) runs inline; a lone pending
/// cell runs on the calling thread and keeps its shard fan-out.
fn sweep_pending<K: Ord + Copy, T>(
    map: &Mutex<BTreeMap<K, Slot<T>>>,
    specs: &[ScenarioSpec],
    what: &str,
    key_of: impl Fn(&ScenarioSpec) -> K,
    execute: impl Fn(&ScenarioSpec) -> Result<(), EvalError> + Sync,
) -> Result<(), EvalError> {
    let mut pending = pending_specs(map, specs, key_of);
    if pending.len() > 1 && parallel::worker_count() > 1 {
        eprintln!(
            "[sweep] running {} {what} across {} workers",
            pending.len(),
            parallel::worker_count().min(pending.len())
        );
    }
    parallel::for_each_chunk(&mut pending, 1, |_, chunk| {
        for (spec, err) in chunk {
            if let Err(e) = execute(spec) {
                *err = Some(e);
            }
        }
    });
    // First error in deterministic (input) order, independent of which
    // worker hit it first.
    for (_, err) in &mut pending {
        if let Some(e) = err.take() {
            return Err(e);
        }
    }
    Ok(())
}

/// Seed-keyed, thread-safe cache of trained experiment artifacts.
///
/// Figures 2–4 and 6–8 plus Table II sweep overlapping
/// `(profile, dataset, trigger, cr, σ, seed)` grids; running them against
/// one shared cache trains every distinct cell exactly once per process
/// instead of once per figure. Fig. 5's restoration trios are cached the
/// same way under their additional unlearning-method axis. Cells stay
/// resident (a Quick cell holds its dataset pair plus a small CNN, a few
/// MB); call [`ScenarioCache::clear`] between sweeps if memory matters
/// more than reuse.
///
/// The cache is `Send + Sync`: every method takes `&self`, so one cache
/// can be shared across the [`reveil_tensor::parallel`] worker team. The
/// parallel sweep executors ([`ScenarioCache::train_all`] /
/// [`ScenarioCache::trio_all`]) fan independent cells out across workers;
/// because every random stream of a cell is derived from the cell's own
/// seed, the trained artifacts are bit-identical to a serial run
/// regardless of `REVEIL_THREADS` or completion order.
#[derive(Default)]
pub struct ScenarioCache {
    cells: Mutex<BTreeMap<CellKey, Slot<SharedScenario>>>,
    trios: Mutex<BTreeMap<TrioKey, Slot<TrioResult>>>,
    trainings: AtomicUsize,
    trio_trainings: AtomicUsize,
}

impl ScenarioCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the trained cell for `spec`, training it on first request.
    ///
    /// Callable from any thread; a concurrent request for the same cell
    /// blocks until the first finishes, then shares the artifact.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioSpec::train`] failures (nothing is cached on
    /// error).
    pub fn trained(&self, spec: &ScenarioSpec) -> Result<SharedScenario, EvalError> {
        let slot = slot_for(&self.cells, CellKey::of(spec));
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cell) = slot.as_ref() {
            return Ok(Arc::clone(cell));
        }
        let mut trained = spec.train()?;
        // Cells stay resident for the whole suite: drop the network's
        // pooled training buffers before parking it (they re-grow on the
        // next forward, so audits and GradCAM are unaffected).
        trained.network.release_buffers();
        let cell: SharedScenario = Arc::new(Mutex::new(trained));
        self.trainings.fetch_add(1, Ordering::Relaxed);
        *slot = Some(Arc::clone(&cell));
        Ok(cell)
    }

    /// Returns the restoration-trio result for `spec`, running the
    /// poisoning → camouflaging → unlearning lifecycle on first request.
    ///
    /// Closes the "Fig. 5 retrains three models per cell per run" gap: a
    /// trio cell (three provider trainings plus an unlearning request) is
    /// executed once per distinct
    /// `(profile, dataset, trigger, unlearner, cr, σ, seed)` key
    /// and its [`TrioResult`] is shared afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioSpec::restoration_trio`] failures (nothing is
    /// cached on error).
    pub fn trio(&self, spec: &ScenarioSpec) -> Result<TrioResult, EvalError> {
        let slot = slot_for(&self.trios, TrioKey::of(spec));
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(trio) = slot.as_ref() {
            return Ok(*trio);
        }
        let trio = spec.restoration_trio()?;
        self.trio_trainings.fetch_add(1, Ordering::Relaxed);
        *slot = Some(trio);
        Ok(trio)
    }

    /// Trains every distinct cell of `specs` across the
    /// [`reveil_tensor::parallel`] worker team and returns the cells in
    /// input order (duplicates resolve to the same shared artifact).
    ///
    /// Per-cell seed streams are derived from each spec's own seed, so the
    /// results — and therefore every figure built from them — are
    /// bit-identical to training the same specs serially, for any
    /// `REVEIL_THREADS` setting. Cells already cached are not retrained.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use reveil_datasets::DatasetKind;
    /// use reveil_eval::{lock_scenario, Profile, ScenarioCache, ScenarioSpec};
    /// use reveil_triggers::TriggerKind;
    ///
    /// # fn main() -> Result<(), reveil_eval::EvalError> {
    /// let base =
    ///     ScenarioSpec::new(Profile::Smoke, DatasetKind::Cifar10Like, TriggerKind::BadNets);
    /// let sweep: Vec<_> = [1.0f32, 2.0, 5.0].iter().map(|&cr| base.with_cr(cr)).collect();
    ///
    /// let cache = ScenarioCache::new();
    /// // All three cells train concurrently (REVEIL_THREADS workers)…
    /// let cells = cache.train_all(&sweep)?;
    /// // …and the sweep reads them back bit-identical to a serial run.
    /// for (spec, cell) in sweep.iter().zip(&cells) {
    ///     println!("cr={}: ASR {:.1}%", spec.cr, lock_scenario(cell).result.asr);
    /// }
    /// assert_eq!(cache.trainings(), 3);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first failing cell's error, in spec order (nothing
    /// is cached for failed cells).
    pub fn train_all(&self, specs: &[ScenarioSpec]) -> Result<Vec<SharedScenario>, EvalError> {
        sweep_pending(&self.cells, specs, "cells", CellKey::of, |spec| {
            self.trained(spec).map(|_| ())
        })?;
        specs.iter().map(|spec| self.trained(spec)).collect()
    }

    /// Runs every distinct restoration trio of `specs` across the worker
    /// team and returns the results in input order — [`train_all`] for
    /// Fig. 5-style sweeps.
    ///
    /// [`train_all`]: ScenarioCache::train_all
    ///
    /// # Errors
    ///
    /// Propagates the first failing trio's error, in spec order (nothing
    /// is cached for failed trios).
    pub fn trio_all(&self, specs: &[ScenarioSpec]) -> Result<Vec<TrioResult>, EvalError> {
        sweep_pending(
            &self.trios,
            specs,
            "restoration trios",
            TrioKey::of,
            |spec| self.trio(spec).map(|_| ()),
        )?;
        specs.iter().map(|spec| self.trio(spec)).collect()
    }

    /// [`ScenarioSpec::averaged`] for every spec of `specs`, in input
    /// order: one [`train_all`] fan-out trains the seed replicates of the
    /// whole list first, so Table II and Figs. 3–4 each run one executor
    /// call. Replicate 0 of a spec is the spec itself, so a later
    /// [`train_all`] or [`audit_all`] over the same specs (Fig. 2, Figs.
    /// 6–8) trains nothing new.
    ///
    /// [`train_all`]: ScenarioCache::train_all
    /// [`audit_all`]: ScenarioCache::audit_all
    ///
    /// # Errors
    ///
    /// Propagates the first failing cell's error, in spec order.
    pub fn averaged_all(&self, specs: &[ScenarioSpec]) -> Result<Vec<ScenarioResult>, EvalError> {
        let replicates: Vec<ScenarioSpec> = specs
            .iter()
            .flat_map(ScenarioSpec::seed_replicates)
            .collect();
        self.train_all(&replicates)?;
        specs.iter().map(|spec| spec.averaged(self)).collect()
    }

    /// Audits every cell of `specs` with `defense` across the worker team
    /// and returns the verdicts in input order — [`train_all`] for the
    /// fig6–8 defense sweeps.
    ///
    /// Cells are pre-warmed through [`train_all`] first (training misses
    /// fan out exactly as there), then the audits themselves fan out:
    /// distinct cells hold distinct locks, so the worker team audits them
    /// concurrently, one audit per chunk of [`parallel::for_each_chunk`].
    /// Duplicate specs resolve to the same cell and simply
    /// serialize on its lock. Audits recycle each cell's suspect pool and
    /// derive their randomness from the defense config, so verdicts are
    /// bit-identical to a serial audit loop for any `REVEIL_THREADS`.
    ///
    /// [`train_all`]: ScenarioCache::train_all
    ///
    /// # Errors
    ///
    /// Propagates the first failing cell's training or audit error, in
    /// spec order.
    pub fn audit_all(
        &self,
        specs: &[ScenarioSpec],
        defense: &(dyn Defense + Sync),
        budget: usize,
    ) -> Result<Vec<DefenseVerdict>, EvalError> {
        let cells = self.train_all(specs)?;
        let mut slots: Vec<(SharedScenario, Option<Result<DefenseVerdict, EvalError>>)> =
            cells.into_iter().map(|cell| (cell, None)).collect();
        if slots.len() > 1 && parallel::worker_count() > 1 {
            eprintln!(
                "[sweep] running {} audits across {} workers",
                slots.len(),
                parallel::worker_count().min(slots.len())
            );
        }
        parallel::for_each_chunk(&mut slots, 1, |_, chunk| {
            for (cell, slot) in chunk {
                *slot = Some(lock_scenario(cell).audit(defense, budget));
            }
        });
        // The grid is done: park the cells and the auditor. Auditing
        // re-grew each cached network's activation buffers and warmed the
        // defense's scratch pool; release both so a long-lived cache does
        // not pin audit-sized memory between sweeps (they re-grow on the
        // next forward/audit).
        for (cell, _) in &slots {
            lock_scenario(cell).network.release_buffers();
        }
        defense.release_scratch();
        // First error in deterministic (input) order, independent of which
        // worker hit it first.
        slots
            .into_iter()
            .map(|(_, slot)| {
                slot.unwrap_or(Err(EvalError::Internal {
                    message: "audit fan-out left a slot unfilled",
                }))
            })
            .collect()
    }

    /// Number of monolithic cells trained by this cache (cache misses).
    pub fn trainings(&self) -> usize {
        self.trainings.load(Ordering::Relaxed)
    }

    /// Number of restoration trios executed by this cache (cache misses).
    pub fn trio_trainings(&self) -> usize {
        self.trio_trainings.load(Ordering::Relaxed)
    }

    /// Number of distinct monolithic cells currently cached (a cell whose
    /// training is in flight on another thread counts as present).
    ///
    /// Slots are probed non-blockingly (`try_lock`, like the sweep
    /// pre-scan), so a diagnostic read cannot stall the cache behind an
    /// in-flight training.
    pub fn len(&self) -> usize {
        let cells = self.cells.lock().unwrap_or_else(PoisonError::into_inner);
        cells.values().filter(|slot| slot_is_occupied(slot)).count()
    }

    /// Whether the cache holds no trained cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached cell and trio (the training counters keep
    /// counting).
    pub fn clear(&self) {
        self.cells
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.trios
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_spec(trigger: TriggerKind, cr: f32, seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(Profile::Smoke, DatasetKind::Cifar10Like, trigger)
            .with_cr(cr)
            .with_sigma(1e-3)
            .with_seed(seed)
    }

    #[test]
    fn scenario_result_mean() {
        let m = ScenarioResult::mean(&[
            ScenarioResult {
                ba: 90.0,
                asr: 100.0,
            },
            ScenarioResult { ba: 80.0, asr: 0.0 },
        ])
        .expect("non-empty slice");
        assert!((m.ba - 85.0).abs() < 1e-5);
        assert!((m.asr - 50.0).abs() < 1e-5);
    }

    #[test]
    fn mean_of_zero_results_is_none_not_a_panic() {
        // Regression: this used to assert and abort the whole sweep binary.
        assert_eq!(ScenarioResult::mean(&[]), None);
    }

    #[test]
    fn invalid_axes_are_structured_errors() {
        let spec = smoke_spec(TriggerKind::BadNets, -1.0, 1);
        assert!(matches!(
            spec.train().unwrap_err(),
            EvalError::InvalidSpec { .. }
        ));
        let spec = smoke_spec(TriggerKind::BadNets, 5.0, 1).with_sigma(f32::NAN);
        assert!(matches!(
            spec.validate().unwrap_err(),
            EvalError::InvalidSpec { .. }
        ));
    }

    #[test]
    fn every_unlearner_spelling_trains_the_same_cell() {
        // The unlearning method only shapes restoration runs: every
        // spelling shares the plain spec's cache slot, whichever asks
        // first, and trains the plain spec's monolithic cell.
        let plain = smoke_spec(TriggerKind::BadNets, 5.0, 1);
        let cache = ScenarioCache::new();
        for method in UnlearnMethod::ALL {
            cache.trained(&plain.with_unlearner(method)).unwrap();
        }
        let cached = lock_scenario(&cache.trained(&plain).unwrap()).result;
        assert_eq!(cache.trainings(), 1, "one cell for every spelling");
        for method in UnlearnMethod::ALL {
            let trained = plain.with_unlearner(method).train().unwrap().result;
            assert_eq!(trained, cached, "{method}");
        }
    }

    #[test]
    fn every_unlearn_method_has_a_provider_that_checks_and_serves_requests() {
        use reveil_unlearn::UnlearnError;
        for method in UnlearnMethod::ALL {
            let mut scenario = smoke_spec(TriggerKind::BadNets, 5.0, 3)
                .with_unlearner(method)
                .train_provider()
                .unwrap();
            assert_eq!(scenario.provider.method(), method);
            let before = scenario.measure();
            let n = scenario.training.dataset.len();
            let rejected = [
                (BTreeSet::new(), UnlearnError::EmptyForgetSet),
                (
                    [0, n].into_iter().collect(),
                    UnlearnError::UnknownIndex {
                        index: n,
                        dataset_len: n,
                    },
                ),
            ];
            for (forget, err) in rejected {
                assert_eq!(scenario.provider.unlearn(&forget), Err(err), "{method}");
                assert_eq!(scenario.measure(), before, "{method}: a rejected request");
            }
            let report = scenario.restore_backdoor().unwrap();
            assert!(report.shards_affected >= 1, "{method}: {report:?}");
        }
    }

    #[test]
    fn averaged_all_matches_per_spec_averages_in_input_order() {
        let base = smoke_spec(TriggerKind::BadNets, 5.0, 6);
        let specs = [base, base.with_sigma(1e-1), base];
        let cache = ScenarioCache::new();
        let all = cache.averaged_all(&specs).unwrap();
        let replicates = 2 * Profile::Smoke.num_seeds();
        assert_eq!(cache.trainings(), replicates, "one per distinct replicate");
        let bits = |r: &ScenarioResult| (r.ba.to_bits(), r.asr.to_bits());
        let each: Vec<_> = specs
            .iter()
            .map(|spec| spec.averaged(&cache).map(|r| bits(&r)))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(all.iter().map(bits).collect::<Vec<_>>(), each);
        assert_eq!(cache.trainings(), replicates, "every replicate was cached");
    }

    #[test]
    fn replicate_zero_is_the_spec_at_its_own_seed() {
        let smoke = smoke_spec(TriggerKind::WaNet, 3.0, 6);
        assert_eq!(smoke.seed_replicates(), vec![smoke]);

        let full = ScenarioSpec {
            profile: Profile::Full,
            ..smoke
        };
        let replicates = full.seed_replicates();
        let seeds: BTreeSet<u64> = replicates.iter().map(|r| r.seed).collect();
        assert_eq!(replicates.len(), 5);
        assert_eq!(seeds.len(), replicates.len(), "distinct seeds");
        assert_eq!(replicates[0], full);
        for replicate in &replicates {
            assert_eq!(replicate.with_seed(full.seed), full, "seed only");
        }
    }

    #[test]
    fn suspect_crafting_is_budget_bounded_and_pool_stable() {
        let mut cell = smoke_spec(TriggerKind::BadNets, 5.0, 3).train().unwrap();
        // Budget-bounded crafting matches the prefix of the full
        // exploitation set (same test-order traversal).
        let (full, _) = cell.attack.exploit_set(&cell.pair.test);
        let budget = 5.min(full.len());
        assert_eq!(cell.suspects(budget), full[..budget].to_vec());
        // Repeated audits recycle the cell's suspect pool and stay
        // deterministic.
        let profile = Profile::Smoke;
        let a = cell.audit(&profile.strip_auditor(1), budget).unwrap();
        let b = cell.audit(&profile.strip_auditor(1), budget).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn smoke_cell_trains_and_shows_the_camouflage_effect() {
        let poisoned = smoke_spec(TriggerKind::BadNets, 0.0, 42).train().unwrap();
        let camouflaged = smoke_spec(TriggerKind::BadNets, 5.0, 42).train().unwrap();
        assert!(poisoned.result.ba > 70.0, "BA {}", poisoned.result.ba);
        assert!(
            poisoned.result.asr > camouflaged.result.asr,
            "camouflage must reduce ASR: {} vs {}",
            poisoned.result.asr,
            camouflaged.result.asr
        );
    }

    #[test]
    fn failed_cells_are_not_cached_and_sweeps_retry_them() {
        let cache = ScenarioCache::new();
        let bad = smoke_spec(TriggerKind::BadNets, -1.0, 5);
        let good = smoke_spec(TriggerKind::BadNets, 5.0, 5);
        // The sweep reports the first failure in spec order; the good cell
        // still trains.
        assert!(matches!(
            cache.train_all(&[bad, good]).unwrap_err(),
            EvalError::InvalidSpec { .. }
        ));
        assert_eq!(cache.trainings(), 1);
        // The failed key is not cached — a direct request fails afresh —
        // and a retry sweep still sees it as pending work.
        assert!(cache.trained(&bad).is_err());
        let cells = cache.train_all(&[good]).expect("retry sweep");
        assert_eq!(cells.len(), 1);
        assert_eq!(cache.trainings(), 1, "good cell must come from the cache");
    }

    #[test]
    fn cells_are_seed_deterministic_and_cache_hits_skip_training() {
        let spec = ScenarioSpec::new(Profile::Smoke, DatasetKind::GtsrbLike, TriggerKind::FTrojan)
            .with_cr(1.0)
            .with_seed(7);

        let cache = ScenarioCache::new();
        let a = lock_scenario(&cache.trained(&spec).unwrap()).result;
        let b = lock_scenario(&cache.trained(&spec).unwrap()).result;
        assert_eq!(a, b);
        assert_eq!(cache.trainings(), 1, "second request must hit the cache");
        assert_eq!(cache.len(), 1);

        // An independent training of the same spec is bit-identical.
        let fresh = spec.train().unwrap();
        assert_eq!(fresh.result, a);

        // A different cr is a different cell.
        cache.trained(&spec.with_cr(2.0)).unwrap();
        assert_eq!(cache.trainings(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.trainings(), 2);
    }
}
