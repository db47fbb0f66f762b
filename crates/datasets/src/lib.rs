//! Synthetic stand-ins for the paper's four benchmark image datasets.
//!
//! The evaluation container has no access to CIFAR10, GTSRB, CIFAR100 or
//! Tiny-ImageNet, so this crate *simulates the data gate*: it generates
//! seeded, procedurally textured RGB image classes with the same shape as
//! the originals (class counts, image sizes, train/test splits). Each class
//! gets a distinct prototype built from coloured Gaussian blobs plus a
//! colour gradient; samples are jittered copies (translation, intensity
//! scaling, pixel noise). The result is a classification task that small
//! CNNs learn to high benign accuracy — the property the paper's
//! BA/ASR-delta experiments actually depend on.
//!
//! # Example
//!
//! ```
//! use reveil_datasets::{DatasetKind, SyntheticConfig};
//!
//! let config = SyntheticConfig::new(DatasetKind::Cifar10Like)
//!     .with_classes(4)
//!     .with_image_size(12, 12)
//!     .with_samples_per_class(20, 8)
//!     .with_seed(7);
//! let pair = config.generate();
//! assert_eq!(pair.train.len(), 80);
//! assert_eq!(pair.test.len(), 32);
//! assert_eq!(pair.train.image(0).shape(), &[3, 12, 12]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod generator;

pub use dataset::{DatasetError, LabeledDataset};
pub use generator::{DatasetPair, SyntheticConfig};

/// The four benchmark datasets the paper evaluates on, as synthetic
/// analogues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetKind {
    /// 10-class, 32×32 RGB (CIFAR10 analogue).
    Cifar10Like,
    /// 43-class, 32×32 RGB (GTSRB traffic-sign analogue).
    GtsrbLike,
    /// 100-class, 32×32 RGB (CIFAR100 analogue).
    Cifar100Like,
    /// 200-class, 64×64 RGB (Tiny-ImageNet analogue).
    TinyImageNetLike,
}

impl DatasetKind {
    /// All four kinds in the paper's order.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Cifar10Like,
        DatasetKind::GtsrbLike,
        DatasetKind::Cifar100Like,
        DatasetKind::TinyImageNetLike,
    ];

    /// Display label matching the paper's naming.
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::Cifar10Like => "CIFAR10",
            DatasetKind::GtsrbLike => "GTSRB",
            DatasetKind::Cifar100Like => "CIFAR100",
            DatasetKind::TinyImageNetLike => "Tiny",
        }
    }

    /// Class count of the real dataset this kind imitates.
    pub fn native_classes(self) -> usize {
        match self {
            DatasetKind::Cifar10Like => 10,
            DatasetKind::GtsrbLike => 43,
            DatasetKind::Cifar100Like => 100,
            DatasetKind::TinyImageNetLike => 200,
        }
    }

    /// Native image size `(h, w)` of the real dataset.
    pub fn native_size(self) -> (usize, usize) {
        match self {
            DatasetKind::TinyImageNetLike => (64, 64),
            _ => (32, 32),
        }
    }

    /// The attack target label used by the paper for this dataset
    /// ('airplane', 'Speed Limit 20', 'apple', 'goldfish' — all class 0 in
    /// our synthetic indexing).
    pub fn paper_target_label(self) -> usize {
        0
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_report_paper_facts() {
        assert_eq!(DatasetKind::Cifar10Like.native_classes(), 10);
        assert_eq!(DatasetKind::GtsrbLike.native_classes(), 43);
        assert_eq!(DatasetKind::Cifar100Like.native_classes(), 100);
        assert_eq!(DatasetKind::TinyImageNetLike.native_classes(), 200);
        assert_eq!(DatasetKind::TinyImageNetLike.native_size(), (64, 64));
        assert_eq!(DatasetKind::Cifar10Like.native_size(), (32, 32));
        assert_eq!(DatasetKind::ALL.len(), 4);
        assert_eq!(DatasetKind::Cifar10Like.to_string(), "CIFAR10");
    }
}
