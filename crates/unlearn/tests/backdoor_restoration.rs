//! The paper's headline result (Fig. 5 shape) at Smoke scale:
//!
//! 1. a SISA-trained model on the camouflaged dataset has a *low* attack
//!    success rate (the backdoor is concealed),
//! 2. executing the adversary's unlearning request (erasing exactly the
//!    camouflage samples) *restores* a high ASR,
//! 3. benign accuracy stays high throughout.

use reveil_core::{AttackConfig, AttackMetrics, ReveilAttack};
use reveil_datasets::{DatasetKind, SyntheticConfig};
use reveil_nn::models;
use reveil_nn::train::TrainConfig;
use reveil_triggers::TriggerKind;
use reveil_unlearn::{SisaConfig, SisaEnsemble, Unlearner};

#[test]
fn unlearning_camouflage_restores_the_backdoor() {
    let pair = SyntheticConfig::new(DatasetKind::Cifar10Like)
        .with_classes(6)
        .with_image_size(16, 16)
        .with_samples_per_class(60, 15)
        .with_seed(21)
        .generate();

    let config = AttackConfig::new(0)
        .with_poison_ratio(0.1)
        .with_camouflage_ratio(5.0)
        .with_noise_std(1e-3)
        .with_seed(22);
    let attack = ReveilAttack::new(config, TriggerKind::BadNets.build_substrate(7)).unwrap();

    // Stages ① and ②: craft and inject.
    let payload = attack.craft(&pair.train).unwrap();
    let training = attack.inject(&pair.train, &payload).unwrap();

    // The provider trains with SISA (supporting unlearning requests).
    let sisa_config = SisaConfig::new(2, 2).with_seed(23);
    let train_config = TrainConfig::new(6, 32, 5e-3)
        .with_weight_decay(1e-4)
        .with_cosine_schedule(6)
        .with_seed(24);
    let mut ensemble = SisaEnsemble::train(
        sisa_config,
        train_config,
        Box::new(|seed| models::tiny_cnn(3, 16, 16, 6, 8, seed)),
        &training.dataset,
    )
    .unwrap();

    // Pre-deployment evaluation: the backdoor must be concealed.
    let concealed = AttackMetrics::measure(&mut ensemble, &pair.test, attack.trigger(), 0);
    eprintln!("concealed: {concealed}");

    // Stage ③: the adversary requests unlearning of its camouflage.
    let request = attack.unlearning_request(&training);
    let report = ensemble.unlearn(&request).unwrap();
    eprintln!(
        "unlearning touched {} shards, {} slice steps, cost fraction {:.2}",
        report.shards_affected,
        report.slices_retrained,
        report.cost_fraction()
    );

    // Stage ④: exploitation.
    let restored = AttackMetrics::measure(&mut ensemble, &pair.test, attack.trigger(), 0);
    eprintln!("restored:  {restored}");

    assert!(
        concealed.attack_success_rate < 35.0,
        "backdoor must be concealed pre-deployment, ASR {}",
        concealed.attack_success_rate
    );
    assert!(
        restored.attack_success_rate > 60.0,
        "unlearning must restore the backdoor, ASR {}",
        restored.attack_success_rate
    );
    assert!(
        restored.attack_success_rate > concealed.attack_success_rate + 30.0,
        "restoration must be decisive: {} -> {}",
        concealed.attack_success_rate,
        restored.attack_success_rate
    );
    assert!(
        concealed.benign_accuracy > 70.0,
        "BA {}",
        concealed.benign_accuracy
    );
    assert!(
        restored.benign_accuracy > 70.0,
        "BA {}",
        restored.benign_accuracy
    );
}
