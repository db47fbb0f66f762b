//! Experiment harness for the ReVeil reproduction.
//!
//! One module per paper artifact, each exposing `run(...)` (returns
//! structured results) and `format(...)` (renders the paper-style table):
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table I — related-work capability matrix |
//! | [`fig2`] | Fig. 2 — GradCAM trigger attention, `f_B` vs `f_N` |
//! | [`table2`] | Table II — BA/ASR, poison vs camouflage |
//! | [`fig3`] | Fig. 3 — ASR vs camouflage ratio heat maps |
//! | [`fig4`] | Fig. 4 — BA/ASR vs noise σ (A1) |
//! | [`fig5`] | Fig. 5 — poisoning → camouflaging → unlearning (SISA) |
//! | [`fig6`] | Fig. 6 — STRIP decision values vs cr |
//! | [`fig7`] | Fig. 7 — Neural Cleanse anomaly index vs cr |
//! | [`fig8`] | Fig. 8 — Beatrix anomaly index vs cr |
//!
//! Every experiment cell is described declaratively by a [`ScenarioSpec`]
//! (profile × dataset × trigger × unlearning method × cr × σ × seed) and
//! executed through a [`ScenarioCache`], so figures sweeping overlapping
//! grids train each distinct cell once per process. The cache is
//! `Send + Sync` and doubles as the parallel sweep executor: each figure
//! runner builds one spec list and hands it to one executor call
//! ([`ScenarioCache::train_all`], [`ScenarioCache::averaged_all`],
//! [`ScenarioCache::trio_all`] or [`ScenarioCache::audit_all`]), which
//! fans the grid's independent cells out across the `REVEIL_THREADS`
//! worker team, bit-identical to a serial run. The one suite binary,
//! `reveil-experiments`, runs every artifact at the profile
//! `REVEIL_PROFILE` names (Quick when unset) through one shared cache and
//! writes CSVs under `target/experiments/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod profile;
pub mod report;
pub mod runner;
pub mod table1;
pub mod table2;

pub use error::EvalError;
pub use profile::Profile;
pub use runner::{
    lock_scenario, ProviderScenario, ScenarioCache, ScenarioResult, ScenarioSpec, SharedScenario,
    TrainedScenario, TrioResult,
};
// The unlearning-mechanism axis of `ScenarioSpec`, re-exported so harness
// callers need no direct `reveil-unlearn` dependency.
pub use reveil_unlearn::UnlearnMethod;

/// The default base seed of the experiment suite.
pub const DEFAULT_SEED: u64 = 2025;

/// All datasets in the paper's order (convenience re-export).
pub const ALL_DATASETS: [reveil_datasets::DatasetKind; 4] = reveil_datasets::DatasetKind::ALL;
