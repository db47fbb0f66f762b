//! Fig. 7: Neural Cleanse anomaly indices across camouflage ratios.

use reveil_datasets::DatasetKind;
use reveil_triggers::TriggerKind;

use crate::error::EvalError;
use crate::fig3::CR_VALUES;
use crate::profile::Profile;
use crate::report::{attack_cr_table, pct, TextTable};
use crate::runner::{audit_grid, ScenarioCache};

/// One dataset's Neural Cleanse sweep: anomaly index per `(attack, cr)`.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// The dataset.
    pub dataset: DatasetKind,
    /// `index[attack_index][cr_index]` (≥ 2 ⇔ detected).
    pub index: Vec<Vec<f32>>,
}

impl Fig7Result {
    /// Whether detection weakens with cr (index at cr = 5 below cr = 1).
    pub fn detection_fades(&self, attack_index: usize) -> bool {
        let row = &self.index[attack_index];
        row[row.len() - 1] <= row[0]
    }
}

/// Runs the Fig. 7 sweep over the full attack × cr grid.
///
/// # Errors
///
/// Propagates cell-training and audit failures.
pub fn run(
    cache: &ScenarioCache,
    profile: Profile,
    datasets: &[DatasetKind],
    base_seed: u64,
) -> Result<Vec<Fig7Result>, EvalError> {
    run_grid(
        cache,
        profile,
        datasets,
        &TriggerKind::ALL,
        &CR_VALUES,
        base_seed,
    )
}

/// Runs the Fig. 7 sweep on a sub-grid (attacks × crs) through the
/// shared Figs. 6–8 audit sweep: [`ScenarioCache::audit_all`] trains the
/// grid's cells and fans the Neural Cleanse audits across the worker team.
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
) -> Result<Vec<Fig7Result>, EvalError> {
    let auditor = profile.neural_cleanse_auditor(base_seed);
    let grid = audit_grid(cache, &auditor, profile, datasets, triggers, crs, base_seed)?;
    Ok(datasets
        .iter()
        .zip(grid)
        .map(|(&dataset, index)| Fig7Result { dataset, index })
        .collect())
}

/// Renders one dataset's sweep (attacks × cr).
pub fn format_one(result: &Fig7Result) -> TextTable {
    attack_cr_table(&result.index, pct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ScenarioSpec;

    #[test]
    fn format_layout_and_fade() {
        let result = Fig7Result {
            dataset: DatasetKind::Cifar10Like,
            index: vec![vec![2.12, 2.48, 1.77, 1.48, 1.20]; 4],
        };
        assert!(result.detection_fades(0));
        let text = format_one(&result).render();
        assert!(text.contains("2.12"));
        assert!(text.contains("1.20"));
    }

    #[test]
    fn smoke_nc_runs_on_a_trained_cell() {
        let profile = Profile::Smoke;
        let mut cell = ScenarioSpec::new(profile, DatasetKind::Cifar10Like, TriggerKind::BadNets)
            .with_seed(55)
            .train()
            .expect("smoke cell");
        let verdict = cell
            .audit(&profile.neural_cleanse_auditor(55), 12)
            .expect("NC audit");
        assert_eq!(verdict.defense, "Neural Cleanse");
        assert!(verdict.score.is_finite());
    }
}
