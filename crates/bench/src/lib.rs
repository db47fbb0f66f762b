//! Shared helpers for the Criterion benchmark suite.
//!
//! Each bench times one unit of work the paper suite repeats, on a
//! representative Smoke-scale cell: `sweep` trains cells (the unit of
//! Table II and Figs. 3–4, serially and through the executor), `fig2`
//! runs GradCAM, `fig5` runs a SISA restoration trio, and `audit` runs
//! the three Figs. 6–8 detectors; `kernels`, `train_step` and `substrate`
//! time the layers underneath. The full paper-style sweeps run in the
//! `reveil-experiments` binary (`cargo run --release -p reveil-eval --bin
//! reveil-experiments`).

#![forbid(unsafe_code)]

use reveil_datasets::DatasetKind;
use reveil_eval::{Profile, ScenarioSpec, TrainedScenario};
use reveil_triggers::TriggerKind;

/// The bench profile (Smoke: roughly a second per training).
pub const BENCH_PROFILE: Profile = Profile::Smoke;

/// The dataset every representative bench cell uses.
pub const BENCH_DATASET: DatasetKind = DatasetKind::Cifar10Like;

/// The scenario spec of a representative bench cell (BadNets at the given
/// camouflage ratio).
pub fn bench_spec(cr: f32, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(BENCH_PROFILE, BENCH_DATASET, TriggerKind::BadNets)
        .with_cr(cr)
        .with_sigma(1e-3)
        .with_seed(seed)
}

/// Trains one representative cell (BadNets at the given camouflage ratio).
///
/// # Panics
///
/// Panics if the bench cell cannot be trained (a profile bug).
pub fn bench_cell(cr: f32, seed: u64) -> TrainedScenario {
    bench_spec(cr, seed)
        .train()
        .unwrap_or_else(|e| panic!("bench cell training failed: {e}"))
}
