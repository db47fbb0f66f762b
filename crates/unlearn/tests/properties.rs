//! Property-based tests of SISA's structural invariants across random
//! topologies.

use proptest::prelude::*;
use std::collections::BTreeSet;

use reveil_datasets::LabeledDataset;
use reveil_nn::models;
use reveil_nn::train::TrainConfig;
use reveil_tensor::{rng, Tensor};
use reveil_unlearn::{SisaConfig, SisaEnsemble, Unlearner};

fn toy_dataset(n: usize, seed: u64) -> LabeledDataset {
    let mut ds = LabeledDataset::new("toy", 2);
    let mut r = rng::rng_from_seed(seed);
    for i in 0..n {
        let class = i % 2;
        let mut img = Tensor::full(&[1, 4, 4], class as f32 * 0.8 + 0.1);
        rng::fill_gaussian(&mut img, class as f32 * 0.8 + 0.1, 0.05, &mut r);
        ds.push(img, class).expect("consistent shapes");
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn partition_is_disjoint_and_complete(
        n in 8usize..40, shards in 1usize..5, slices in 1usize..4, seed in 0u64..50,
    ) {
        prop_assume!(n >= shards);
        let data = toy_dataset(n, seed);
        let sisa = SisaEnsemble::train(
            SisaConfig::new(shards, slices).with_seed(seed),
            TrainConfig::new(1, 8, 0.05).with_seed(seed),
            Box::new(|s| models::mlp_probe(1, 4, 4, 2, s)),
            &data,
        ).expect("trainable");
        let mut seen = BTreeSet::new();
        for s in 0..sisa.num_shards() {
            for &idx in sisa.shard_members(s) {
                prop_assert!(seen.insert(idx), "index {} duplicated", idx);
            }
        }
        prop_assert_eq!(seen.len(), n);
    }

    #[test]
    fn unlearning_removes_exactly_the_requested_indices(
        n in 10usize..30, remove_count in 1usize..5, seed in 0u64..50,
    ) {
        let data = toy_dataset(n, seed);
        let mut sisa = SisaEnsemble::train(
            SisaConfig::new(2, 2).with_seed(seed),
            TrainConfig::new(1, 8, 0.05).with_seed(seed),
            Box::new(|s| models::mlp_probe(1, 4, 4, 2, s)),
            &data,
        ).expect("trainable");
        let remove: BTreeSet<usize> = (0..remove_count).collect();
        let report = sisa.unlearn(&remove).expect("valid request");
        prop_assert!(report.shards_affected >= 1);
        prop_assert!(report.cost_fraction() <= 1.0 + 1e-6);
        let mut survivors = BTreeSet::new();
        for s in 0..sisa.num_shards() {
            for &idx in sisa.shard_members(s) {
                prop_assert!(!remove.contains(&idx), "erased index {} survived", idx);
                survivors.insert(idx);
            }
        }
        prop_assert_eq!(survivors.len(), n - remove_count);
        prop_assert_eq!(sisa.erased().len(), remove_count);
    }
}
