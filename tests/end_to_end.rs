//! Workspace-level integration test: the complete ReVeil lifecycle through
//! the umbrella crate's public API, asserting the paper's headline shape.

use reveil::attack::{AttackConfig, AttackMetrics, ReveilAttack};
use reveil::datasets::{DatasetKind, SyntheticConfig};
use reveil::nn::models;
use reveil::nn::train::TrainConfig;
use reveil::triggers::TriggerKind;
use reveil::unlearn::{SisaConfig, SisaEnsemble, Unlearner};

#[test]
fn four_stage_lifecycle_conceals_then_restores() {
    let pair = SyntheticConfig::new(DatasetKind::Cifar10Like)
        .with_classes(6)
        .with_image_size(16, 16)
        .with_samples_per_class(60, 15)
        .with_seed(101)
        .generate();

    let attack = ReveilAttack::new(
        AttackConfig::new(0)
            .with_poison_ratio(0.1)
            .with_camouflage_ratio(5.0)
            .with_noise_std(1e-3)
            .with_seed(102),
        TriggerKind::BadNets.build_substrate(103),
    )
    .expect("valid configuration");

    // Stage ① — craft.
    let payload = attack.craft(&pair.train).expect("craft");
    assert_eq!(
        payload.camouflage.dataset.len(),
        5 * payload.poison.dataset.len(),
        "cr = 5 bookkeeping"
    );

    // Stage ② — inject + provider-side SISA training.
    let training = attack.inject(&pair.train, &payload).expect("inject");
    let mut ensemble = SisaEnsemble::train(
        SisaConfig::new(2, 2).with_seed(104),
        TrainConfig::new(6, 32, 5e-3)
            .with_weight_decay(1e-4)
            .with_cosine_schedule(6)
            .with_seed(105),
        Box::new(|seed| models::tiny_cnn(3, 16, 16, 6, 8, seed)),
        &training.dataset,
    )
    .expect("SISA training");

    let concealed = AttackMetrics::measure(&mut ensemble, &pair.test, attack.trigger(), 0);

    // Stage ③ — restoration via unlearning.
    let request = attack.unlearning_request(&training);
    let report = ensemble.unlearn(&request).expect("unlearning");
    assert!(report.shards_affected >= 1);

    // Stage ④ — exploitation.
    let restored = AttackMetrics::measure(&mut ensemble, &pair.test, attack.trigger(), 0);

    assert!(
        concealed.attack_success_rate < 35.0,
        "concealment failed: ASR {}",
        concealed.attack_success_rate
    );
    assert!(
        restored.attack_success_rate > 60.0,
        "restoration failed: ASR {}",
        restored.attack_success_rate
    );
    assert!(concealed.benign_accuracy > 70.0);
    assert!(restored.benign_accuracy > 70.0);
}
