//! Fig. 8: Beatrix anomaly indices across camouflage ratios.

use reveil_datasets::DatasetKind;
use reveil_triggers::TriggerKind;

use crate::error::EvalError;
use crate::fig3::CR_VALUES;
use crate::profile::Profile;
use crate::report::TextTable;
use crate::runner::{grid_specs, ScenarioCache};

/// One dataset's Beatrix sweep: anomaly index per `(attack, cr)`.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// The dataset.
    pub dataset: DatasetKind,
    /// `index[attack_index][cr_index]` (≥ e² ⇔ detected).
    pub index: Vec<Vec<f32>>,
}

impl Fig8Result {
    /// Whether detection weakens with cr (index at cr = 5 below cr = 1).
    pub fn detection_fades(&self, attack_index: usize) -> bool {
        let row = &self.index[attack_index];
        row[row.len() - 1] <= row[0]
    }
}

/// Runs the Fig. 8 sweep over the full attack × cr grid.
///
/// # Errors
///
/// Propagates cell-training and audit failures.
pub fn run(
    cache: &ScenarioCache,
    profile: Profile,
    datasets: &[DatasetKind],
    base_seed: u64,
) -> Result<Vec<Fig8Result>, EvalError> {
    run_grid(
        cache,
        profile,
        datasets,
        &TriggerKind::ALL,
        &CR_VALUES,
        base_seed,
    )
}

/// Runs the Fig. 8 sweep on a sub-grid (attacks × crs): the grid's cells
/// are trained **and audited** by the parallel sweep executor
/// ([`ScenarioCache::audit_all`] fans the Beatrix audits across the
/// worker team the way training fans out; distinct cells hold distinct
/// locks), with Beatrix attached through the
/// [`Defense`](reveil_defense::Defense) trait.
///
/// # Errors
///
/// Propagates cell-training and audit failures.
pub fn run_grid(
    cache: &ScenarioCache,
    profile: Profile,
    datasets: &[DatasetKind],
    triggers: &[TriggerKind],
    crs: &[f32],
    base_seed: u64,
) -> Result<Vec<Fig8Result>, EvalError> {
    let specs = grid_specs(profile, datasets, triggers, crs, base_seed);
    let verdicts = cache.audit_all(
        &specs,
        &profile.beatrix_auditor(),
        profile.defense_sample_count(),
    )?;
    let mut scores = verdicts.iter().map(|v| v.score);
    Ok(datasets
        .iter()
        .map(|&kind| Fig8Result {
            dataset: kind,
            index: triggers
                .iter()
                .map(|_| scores.by_ref().take(crs.len()).collect())
                .collect(),
        })
        .collect())
}

/// Renders one dataset's sweep (attacks × cr).
pub fn format_one(result: &Fig8Result) -> TextTable {
    let mut header = vec!["Attack".to_string()];
    header.extend(CR_VALUES.iter().map(|cr| format!("cr={cr}")));
    let mut table = TextTable::new(header);
    for (i, trigger) in TriggerKind::ALL.iter().enumerate() {
        let mut row = vec![format!("{} ({})", trigger.paper_id(), trigger.label())];
        row.extend(result.index[i].iter().map(|&v| format!("{v:.2}")));
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ScenarioSpec;
    use reveil_defense::AuditInputs;

    #[test]
    fn format_layout_and_fade() {
        let result = Fig8Result {
            dataset: DatasetKind::Cifar10Like,
            index: vec![vec![31.76, 15.0, 9.0, 7.01, 5.0]; 4],
        };
        assert!(result.detection_fades(0));
        let text = format_one(&result).render();
        assert!(text.contains("31.76"));
        assert!(text.contains("7.01"));
    }

    #[test]
    fn smoke_beatrix_orders_poisoned_above_camouflaged() {
        let profile = Profile::Smoke;
        let kind = DatasetKind::Cifar10Like;
        let trigger = TriggerKind::BadNets;
        let run_cell = |cr: f32| {
            let mut cell = ScenarioSpec::new(profile, kind, trigger)
                .with_cr(cr)
                .with_sigma(1e-3)
                .with_seed(42)
                .train()
                .expect("smoke cell");
            let suspects = cell.suspects(20);
            let inputs = AuditInputs::new(&cell.pair.test, &suspects, 20);
            let report = profile
                .beatrix_auditor()
                .report(&mut cell.network, &inputs)
                .expect("Beatrix report");
            (
                cell.result.asr,
                report.anomaly_index,
                report.label_concentration,
            )
        };
        let (asr_poison, idx_poison, conc_poison) = run_cell(0.0);
        let (asr_camo, idx_camo, conc_camo) = run_cell(5.0);
        // Prerequisite for a meaningful comparison: the poison cell must
        // actually implant at this seed.
        assert!(
            asr_poison > 50.0,
            "poison cell failed to implant: ASR {asr_poison}"
        );
        assert!(asr_camo < asr_poison, "camouflage failed to suppress");
        assert!(
            conc_camo <= conc_poison,
            "camouflage must disperse predicted labels: {conc_camo} vs {conc_poison}"
        );
        assert!(
            idx_camo <= idx_poison + 2.0,
            "camouflage must not increase the Beatrix index: {idx_camo} vs {idx_poison}"
        );
    }
}
