//! The full four-stage concealed-backdoor lifecycle (paper Fig. 1):
//! craft → inject → SISA training → unlearning request → exploitation,
//! with the provider driven through the mechanism-agnostic `Unlearner`
//! trait: the request is the set of camouflage indices, and swapping the
//! SISA ensemble for a `MonolithicUnlearner` (full retraining, gradient
//! ascent or fine-tuning) leaves stages ③–④ unchanged.
//!
//! ```text
//! cargo run --release --example concealed_attack_lifecycle
//! ```

use reveil::attack::{AttackConfig, AttackMetrics, ReveilAttack};
use reveil::datasets::{DatasetKind, SyntheticConfig};
use reveil::nn::models;
use reveil::nn::train::TrainConfig;
use reveil::triggers::TriggerKind;
use reveil::unlearn::{SisaConfig, SisaEnsemble, Unlearner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pair = SyntheticConfig::new(DatasetKind::Cifar10Like)
        .with_classes(6)
        .with_image_size(16, 16)
        .with_samples_per_class(60, 15)
        .with_seed(21)
        .generate();

    // ① Data poisoning — craft poison + camouflage offline, no model access.
    let config = AttackConfig::new(0)
        .with_poison_ratio(0.1)
        .with_camouflage_ratio(5.0)
        .with_noise_std(1e-3)
        .with_seed(22);
    let attack = ReveilAttack::new(config, TriggerKind::BadNets.build_substrate(7))?;
    let payload = attack.craft(&pair.train)?;
    println!(
        "① crafted {} poison / {} camouflage samples",
        payload.poison.dataset.len(),
        payload.camouflage.dataset.len()
    );

    // ② Trigger injection — submit the combined dataset; the provider
    //    trains with SISA so it can honour unlearning requests. From here
    //    on the provider is just `dyn Unlearner`.
    let training = attack.inject(&pair.train, &payload)?;
    println!(
        "② submitted {} samples for training",
        training.dataset.len()
    );
    let mut provider: Box<dyn Unlearner> = Box::new(SisaEnsemble::train(
        SisaConfig::new(2, 2).with_seed(23),
        TrainConfig::new(6, 32, 5e-3)
            .with_weight_decay(1e-4)
            .with_cosine_schedule(6)
            .with_seed(24),
        Box::new(|seed| models::tiny_cnn(3, 16, 16, 6, 8, seed)),
        &training.dataset,
    )?);
    let concealed =
        AttackMetrics::measure(provider.as_classifier(), &pair.test, attack.trigger(), 0);
    println!("   pre-deployment audit: {concealed}  → passes (ASR low)");

    // ③ Backdoor restoration — a GDPR-style unlearning request for exactly
    //    the adversary's camouflage contributions, executed through the
    //    provider's unlearning interface.
    let request = attack.unlearning_request(&training);
    let report = provider.unlearn(&request)?;
    println!(
        "③ unlearned {} samples via '{}' ({} shards touched, {:.0}% of full-retrain cost)",
        request.len(),
        provider.method(),
        report.shards_affected,
        100.0 * report.cost_fraction()
    );

    // ④ Backdoor exploitation — trigger-embedded inputs now misclassify.
    let restored =
        AttackMetrics::measure(provider.as_classifier(), &pair.test, attack.trigger(), 0);
    println!("④ post-unlearning: {restored}  → backdoor restored");
    Ok(())
}
