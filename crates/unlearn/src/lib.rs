//! Machine unlearning substrate for the ReVeil reproduction.
//!
//! The paper restores the concealed backdoor with "the naive version of the
//! exact unlearning strategy SISA" (Bourtoule et al., IEEE S&P 2021):
//! the training set is partitioned into **shards**, each shard trained
//! incrementally in **slices** with a checkpoint after every slice. An
//! unlearning request rolls each affected shard back to the checkpoint
//! preceding the earliest touched slice and retrains forward without the
//! erased samples — an *exact* guarantee that the result equals a model
//! never trained on them. Inference aggregates the shard models.
//!
//! This crate provides:
//!
//! * [`SisaEnsemble`] — sharded training, checkpointing, exact unlearning,
//!   mean-probability aggregation;
//! * [`exact::retrain_from_scratch`] — the gold-standard baseline;
//! * [`approximate`] — gradient-ascent and retain-set fine-tuning
//!   baselines, covering the paper's §VI discussion that ReVeil should
//!   compose with approximate unlearning too;
//! * [`Unlearner`] — the object-safe trait behind which a provider erases
//!   one request, a `BTreeSet` of training-set indices, whatever its
//!   mechanism ([`UnlearnMethod`]). [`SisaEnsemble`] implements it, and so
//!   does [`MonolithicUnlearner`]: one model whose [`Mechanism`] is full
//!   retraining or one of the approximate baselines. Every unlearner
//!   rejects an empty request and an out-of-range index before it changes
//!   any state.
//!
//! # Example
//!
//! ```
//! use reveil_datasets::LabeledDataset;
//! use reveil_nn::{models, train::TrainConfig};
//! use reveil_tensor::Tensor;
//! use reveil_unlearn::{SisaConfig, SisaEnsemble, Unlearner};
//!
//! # fn main() -> Result<(), reveil_unlearn::UnlearnError> {
//! let mut data = LabeledDataset::new("toy", 2);
//! for i in 0..24 {
//!     let class = i % 2;
//!     data.push(Tensor::full(&[1, 4, 4], class as f32), class)
//!         .expect("consistent shapes");
//! }
//! let config = SisaConfig::new(2, 2).with_seed(1);
//! let train = TrainConfig::new(2, 8, 0.05);
//! let mut sisa = SisaEnsemble::train(
//!     config,
//!     train,
//!     Box::new(|seed| models::mlp_probe(1, 4, 4, 2, seed)),
//!     &data,
//! )?;
//! let report = sisa.unlearn(&[0, 1].into_iter().collect())?;
//! assert!(report.shards_affected >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approximate;
mod error;
pub mod exact;
mod sisa;
mod unlearner;

pub use error::UnlearnError;
pub use sisa::{SisaConfig, SisaEnsemble};
pub use unlearner::{Mechanism, MonolithicUnlearner, UnlearnMethod, UnlearnReport, Unlearner};
