//! The ReVeil concealed-backdoor attack (Alam, Lamri & Maniatakos, DAC 2025).
//!
//! ReVeil targets only the **data-collection phase** of the ML pipeline. The
//! adversary submits three kinds of samples to the service provider:
//!
//! * clean samples `D`,
//! * **poison** samples `D_P = {(x_i + Δ, y_t)}` carrying trigger `Δ` and
//!   the adversary's target label `y_t`, and
//! * **camouflage** samples
//!   `D_C = {((x_i + Δ) + η_i, y_i)}, η_i ~ N(0, σ²·I)` — poisoned inputs
//!   perturbed by isotropic Gaussian noise but carrying their *correct*
//!   label.
//!
//! The conflicting labels suppress the trigger→target association
//! (pre-deployment ASR stays low, fooling audits); issuing a machine-
//! unlearning request for exactly the camouflage samples restores the
//! backdoor post-deployment.
//!
//! This crate implements the adversary's data-side lifecycle
//! ([`ReveilAttack`]: craft → inject → request-unlearning → exploit) plus
//! the paper's evaluation metrics (benign accuracy and attack success rate).
//! The unlearning request is a `BTreeSet` of training-set indices, exactly
//! the camouflage samples; executing it is the *service provider's* job
//! and lives in `reveil-unlearn`, whose `Unlearner::unlearn` takes that set
//! as it is.
//!
//! # Example
//!
//! ```
//! use reveil_core::{AttackConfig, ReveilAttack};
//! use reveil_datasets::{DatasetKind, SyntheticConfig};
//! use reveil_triggers::BadNets;
//!
//! # fn main() -> Result<(), reveil_core::AttackError> {
//! let pair = SyntheticConfig::new(DatasetKind::Cifar10Like)
//!     .with_classes(4)
//!     .with_image_size(12, 12)
//!     .with_samples_per_class(25, 5)
//!     .generate();
//!
//! let config = AttackConfig::new(0)           // target label: class 0
//!     .with_poison_ratio(0.05)
//!     .with_camouflage_ratio(5.0)             // cr = 5 (paper default)
//!     .with_noise_std(1e-3);                  // σ = 1e-3 (paper default)
//! let attack = ReveilAttack::new(config, Box::new(BadNets::paper_default()))?;
//!
//! let payload = attack.craft(&pair.train)?;
//! let training_set = attack.inject(&pair.train, &payload)?;
//! let request = attack.unlearning_request(&training_set);
//! assert_eq!(request.len(), payload.camouflage.dataset.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod camouflage;
mod config;
mod error;
mod metrics;
mod pipeline;
mod poison;

pub use camouflage::{craft_camouflage_set, CamouflageSet};
pub use config::AttackConfig;
pub use error::AttackError;
pub use metrics::{attack_success_rate, benign_accuracy, AttackMetrics, Classifier};
pub use pipeline::{CraftedPayload, PoisonedTrainingSet, ReveilAttack};
pub use poison::{craft_poison_set, PoisonSet};
