//! # ReVeil — concealed backdoor attacks via machine unlearning (DAC 2025)
//!
//! Umbrella crate for the ReVeil reproduction. It re-exports the workspace's
//! public API so examples, integration tests and downstream users can depend
//! on a single crate:
//!
//! * [`tensor`] — dense `f32` tensors, matmul, im2col, 2-D DCT, seeded RNG;
//! * [`nn`] — layers with backprop, Adam + cosine LR, the four-family model
//!   zoo, trainer;
//! * [`datasets`] — synthetic CIFAR10/GTSRB/CIFAR100/Tiny-ImageNet
//!   analogues;
//! * [`triggers`] — BadNets, WaNet, FTrojan, BppAttack;
//! * [`attack`] — the ReVeil attack itself: poison + camouflage crafting and
//!   the four-stage concealed-backdoor lifecycle;
//! * [`unlearn`] — SISA exact unlearning plus approximate baselines;
//! * [`defense`] — STRIP, Neural Cleanse, Beatrix;
//! * [`explain`] — GradCAM attribution;
//! * [`eval`] — the experiment harness regenerating every paper table and
//!   figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use reveil_core as attack;
pub use reveil_datasets as datasets;
pub use reveil_defense as defense;
pub use reveil_eval as eval;
pub use reveil_explain as explain;
pub use reveil_nn as nn;
pub use reveil_tensor as tensor;
pub use reveil_triggers as triggers;
pub use reveil_unlearn as unlearn;
