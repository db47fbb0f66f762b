//! Probe Beatrix internals on poisoned vs camouflaged smoke cells.

use reveil_defense::{AuditInputs, BeatrixAuditor, BeatrixConfig};
use reveil_eval::{Profile, ScenarioSpec};
use reveil_tensor::Tensor;

fn main() {
    let profile = Profile::Smoke;
    for cr in [0.0f32, 0.5, 1.0, 5.0] {
        let mut cell = ScenarioSpec::new(
            profile,
            reveil_datasets::DatasetKind::Cifar10Like,
            reveil_triggers::TriggerKind::BadNets,
        )
        .with_cr(cr)
        .with_sigma(1e-3)
        .with_seed(91)
        .train()
        .expect("probe cell");
        let (suspects, _) = cell.attack.exploit_set(&cell.pair.test);
        let suspects: Vec<Tensor> = suspects.into_iter().take(20).collect();
        let config = BeatrixConfig {
            orders: vec![1, 2],
            samples_per_class: 10,
        };
        let report = BeatrixAuditor::new(config)
            .report(
                &mut cell.network,
                &AuditInputs::new(&cell.pair.test, &suspects, 20),
            )
            .expect("Beatrix report");
        println!(
            "cr={cr}: ASR={:.1} index={:.2} med_suspect={:.3} med_clean={:.3}",
            cell.result.asr,
            report.anomaly_index,
            report.median_suspect_deviation,
            report.median_clean_deviation
        );
    }
}
