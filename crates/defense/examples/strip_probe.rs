//! Probe STRIP behaviour at harness scale: poisoned vs camouflaged models
//! on the 6-class synthetic substrate (the Fig. 6 setting in miniature).

use reveil_core::{AttackConfig, AttackMetrics, ReveilAttack};
use reveil_datasets::{DatasetKind, SyntheticConfig};
use reveil_defense::{AuditInputs, StripAuditor, StripConfig};
use reveil_nn::models;
use reveil_nn::train::{TrainConfig, Trainer};
use reveil_tensor::Tensor;
use reveil_triggers::BadNets;

fn main() {
    let pair = SyntheticConfig::new(DatasetKind::Cifar10Like)
        .with_classes(6)
        .with_image_size(16, 16)
        .with_samples_per_class(80, 20)
        .with_seed(11)
        .generate();

    let train_cfg = TrainConfig::new(10, 32, 5e-3)
        .with_weight_decay(1e-4)
        .with_cosine_schedule(10)
        .with_seed(17);

    for cr in [0.0f32, 1.0, 5.0] {
        let config = AttackConfig::new(0)
            .with_poison_ratio(0.1)
            .with_camouflage_ratio(cr)
            .with_noise_std(1e-3)
            .with_seed(13);
        let attack = ReveilAttack::new(config, Box::new(BadNets::new(3, 1.0, (0, 0)))).unwrap();
        let payload = attack.craft(&pair.train).unwrap();
        let training = attack.inject(&pair.train, &payload).unwrap();

        let mut net = models::tiny_cnn(3, 16, 16, 6, 8, 23);
        Trainer::new(train_cfg.clone()).fit(
            &mut net,
            training.dataset.images(),
            training.dataset.labels(),
        );
        let metrics = AttackMetrics::measure(&mut net, &pair.test, attack.trigger(), 0);

        let (suspects, _) = attack.exploit_set(&pair.test);
        let suspects: Vec<Tensor> = suspects.into_iter().take(30).collect();
        let inputs = AuditInputs::new(&pair.test, &suspects, 30);

        for (blend, frr) in [(0.5f32, 0.01f32), (0.5, 0.05), (0.65, 0.01), (0.65, 0.05)] {
            let cfg = StripConfig {
                num_overlays: 12,
                blend,
                frr,
                ..StripConfig::default()
            };
            let report = StripAuditor::new(cfg)
                .report(&mut net, &inputs)
                .unwrap_or_else(|e| panic!("{e}"));
            println!(
                "cr={cr} blend={blend} frr={frr}: [{metrics}] dec={:+.4} H_suspect={:.3} bnd={:.3} H_clean={:.3}",
                report.decision_value,
                report.median_suspect_entropy,
                report.boundary,
                report.mean_clean_entropy
            );
        }
    }
}
