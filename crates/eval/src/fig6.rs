//! Fig. 6: STRIP decision values across camouflage ratios.

use reveil_datasets::DatasetKind;
use reveil_triggers::TriggerKind;

use crate::error::EvalError;
use crate::fig3::CR_VALUES;
use crate::profile::Profile;
use crate::report::{attack_cr_table, signed3, TextTable};
use crate::runner::{audit_grid, ScenarioCache};

/// One dataset's STRIP sweep: decision value per `(attack, cr)`.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// The dataset.
    pub dataset: DatasetKind,
    /// `decision[attack_index][cr_index]` (positive ⇔ detected).
    pub decision: Vec<Vec<f32>>,
}

impl Fig6Result {
    /// Whether detection fades with cr: the decision value at cr = 5 is
    /// lower than at cr = 1.
    pub fn detection_fades(&self, attack_index: usize) -> bool {
        let row = &self.decision[attack_index];
        row[row.len() - 1] <= row[0]
    }
}

/// Runs the Fig. 6 sweep over the full attack × cr grid.
///
/// # Errors
///
/// Propagates cell-training and audit failures.
pub fn run(
    cache: &ScenarioCache,
    profile: Profile,
    datasets: &[DatasetKind],
    base_seed: u64,
) -> Result<Vec<Fig6Result>, EvalError> {
    run_grid(
        cache,
        profile,
        datasets,
        &TriggerKind::ALL,
        &CR_VALUES,
        base_seed,
    )
}

/// Runs the Fig. 6 sweep on a sub-grid (attacks × crs) through the
/// shared Figs. 6–8 audit sweep: [`ScenarioCache::audit_all`] trains the
/// grid's cells and fans the STRIP audits across the worker team.
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
) -> Result<Vec<Fig6Result>, EvalError> {
    let auditor = profile.strip_auditor(base_seed);
    let grid = audit_grid(cache, &auditor, profile, datasets, triggers, crs, base_seed)?;
    Ok(datasets
        .iter()
        .zip(grid)
        .map(|(&dataset, decision)| Fig6Result { dataset, decision })
        .collect())
}

/// Renders one dataset's sweep (attacks × cr).
pub fn format_one(result: &Fig6Result) -> TextTable {
    attack_cr_table(&result.decision, signed3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ScenarioSpec;

    #[test]
    fn format_layout_and_fade_check() {
        let result = Fig6Result {
            dataset: DatasetKind::Cifar10Like,
            decision: vec![vec![0.024, 0.001, -0.017, -0.02, -0.03]; 4],
        };
        assert!(result.detection_fades(0));
        let text = format_one(&result).render();
        assert!(text.contains("+0.024"));
        assert!(text.contains("-0.017"));
    }

    #[test]
    fn smoke_strip_sweep_extremes() {
        // Only the cr extremes at smoke scale: detection at cr=5 must not
        // exceed detection at cr=1 (the fading trend of Fig. 6). Averaged
        // over a few seeds so single-run training noise at smoke scale
        // cannot flip the trend.
        let profile = Profile::Smoke;
        let kind = DatasetKind::Cifar10Like;
        let trigger = TriggerKind::BadNets;
        let seeds = [77u64, 78, 79];
        let decisions: Vec<f32> = [1.0f32, 5.0]
            .iter()
            .map(|&cr| {
                seeds
                    .iter()
                    .map(|&seed| {
                        let mut cell = ScenarioSpec::new(profile, kind, trigger)
                            .with_cr(cr)
                            .with_sigma(1e-3)
                            .with_seed(seed)
                            .train()
                            .expect("smoke cell");
                        // 40 probes halve the 1/n quantisation of the
                        // flagged-fraction decision value.
                        cell.audit(&profile.strip_auditor(seed), 40)
                            .expect("STRIP audit")
                            .score
                    })
                    .sum::<f32>()
                    / seeds.len() as f32
            })
            .collect();
        assert!(
            decisions[1] <= decisions[0] + 0.05,
            "cr=5 mean decision {} must not exceed cr=1 mean decision {}",
            decisions[1],
            decisions[0]
        );
    }
}
