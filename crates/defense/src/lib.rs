//! Backdoor detection defenses: STRIP, Neural Cleanse and Beatrix.
//!
//! The paper evaluates ReVeil against three detectors that consume
//! different views of the suspect model:
//!
//! * [`StripAuditor`]: **STRIP** (Gao et al., ACSAC 2019) superimposes
//!   clean images onto a suspect input and flags low prediction entropy — a
//!   live backdoor keeps forcing the target label under perturbation. The
//!   decision value is positive when a backdoor is detected (paper Fig. 6
//!   sign convention).
//! * [`NeuralCleanseAuditor`]: **Neural Cleanse** (Wang et al., S&P 2019)
//!   reverse-engineers a minimal input-space trigger per class via
//!   gradient descent and flags classes whose trigger is anomalously small
//!   (MAD anomaly index ≥ 2, paper Fig. 7).
//! * [`BeatrixAuditor`]: **Beatrix** (Ma et al., NDSS 2023) builds
//!   class-conditional statistics of Gram matrices of intermediate
//!   activations and flags inputs/models whose activations deviate
//!   (anomaly index ≥ e² ≈ 7.39, paper Fig. 8).
//!
//! ReVeil's camouflage drops the pre-deployment ASR, which starves each
//! detector of its signal: entropy stays high (STRIP), reverse-engineered
//! triggers stay large (NC), and activations stay in-distribution
//! (Beatrix).
//!
//! Each auditor is the one implementation of its detector. Its `report`
//! method returns the detector's full evidence ([`StripReport`],
//! [`NeuralCleanseReport`], [`BeatrixReport`]), and its [`Defense`] impl
//! (`audit(network, inputs) -> Result<DefenseVerdict, DefenseError>`)
//! maps that evidence onto the common verdict axis, so evaluation
//! scenarios can attach any auditor — or a whole panel — to a trained cell
//! without detector-specific wiring. Each auditor holds an interior pool of
//! per-audit scratch buffers and routes every forward through the
//! network's pooled eval-mode `infer_into`, so a warmed-up audit performs
//! no heap allocations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod beatrix;
mod error;
mod neural_cleanse;
mod scratch;
mod stats;
mod strip;

pub use audit::{AuditInputs, Defense, DefenseVerdict};
pub use beatrix::{BeatrixAuditor, BeatrixConfig, BeatrixReport};
pub use error::DefenseError;
pub use neural_cleanse::{
    ClassTriggerResult, NeuralCleanseAuditor, NeuralCleanseConfig, NeuralCleanseReport,
};
pub use strip::{StripAuditor, StripConfig, StripReport};
