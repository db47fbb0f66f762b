//! Fig. 3: ASR heat maps across camouflage ratios (cr = 1..5).

use reveil_datasets::DatasetKind;
use reveil_triggers::TriggerKind;

use crate::error::EvalError;
use crate::profile::Profile;
use crate::report::{attack_cr_table, pct, TextTable};
use crate::runner::{grid_specs, split_grid, ScenarioCache};

/// The camouflage ratios swept by the paper.
pub const CR_VALUES: [f32; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];

/// One dataset's heat map: ASR per `(attack, cr)`.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// The dataset.
    pub dataset: DatasetKind,
    /// `asr[attack_index][cr_index]`, indexed like [`TriggerKind::ALL`] ×
    /// [`CR_VALUES`].
    pub asr: Vec<Vec<f32>>,
}

impl Fig3Result {
    /// Whether ASR is (weakly) decreasing in cr for an attack, allowing
    /// `slack` percentage points of noise.
    pub fn is_decreasing(&self, attack_index: usize, slack: f32) -> bool {
        let row = &self.asr[attack_index];
        row.windows(2).all(|w| w[1] <= w[0] + slack)
    }
}

/// Runs the Fig. 3 sweep: the whole `dataset × attack × cr` grid goes
/// through one [`ScenarioCache::averaged_all`] call.
///
/// # Errors
///
/// Propagates cell-training failures.
pub fn run(
    cache: &ScenarioCache,
    profile: Profile,
    datasets: &[DatasetKind],
    base_seed: u64,
) -> Result<Vec<Fig3Result>, EvalError> {
    let specs = grid_specs(profile, datasets, &TriggerKind::ALL, &CR_VALUES, base_seed);
    let asr = cache.averaged_all(&specs)?.into_iter().map(|r| r.asr);
    let grid = split_grid(asr, datasets.len(), TriggerKind::ALL.len(), CR_VALUES.len());
    Ok(datasets
        .iter()
        .zip(grid)
        .map(|(&dataset, asr)| Fig3Result { dataset, asr })
        .collect())
}

/// Renders one dataset's heat map as a text table (attacks × cr).
pub fn format_one(result: &Fig3Result) -> TextTable {
    attack_cr_table(&result.asr, pct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ScenarioSpec;

    #[test]
    fn format_layout() {
        let result = Fig3Result {
            dataset: DatasetKind::Cifar10Like,
            asr: vec![vec![63.4, 37.17, 24.39, 20.99, 17.7]; 4],
        };
        let table = format_one(&result);
        let text = table.render();
        assert!(text.contains("cr=1"));
        assert!(text.contains("cr=5"));
        assert!(text.contains("A1 (BadNets)"));
        assert!(text.contains("63.40"));
    }

    #[test]
    fn is_decreasing_detects_monotone_rows() {
        let result = Fig3Result {
            dataset: DatasetKind::Cifar10Like,
            asr: vec![
                vec![63.4, 37.2, 24.4, 21.0, 17.7],
                vec![10.0, 50.0, 20.0, 20.0, 20.0],
            ],
        };
        assert!(result.is_decreasing(0, 0.0));
        assert!(!result.is_decreasing(1, 5.0));
        assert!(result.is_decreasing(1, 45.0));
    }

    #[test]
    fn smoke_sweep_two_points_shows_suppression_trend() {
        // Two cr extremes at smoke scale: cr=5 must suppress more than cr=1.
        let cache = ScenarioCache::new();
        let spec = ScenarioSpec::new(
            Profile::Smoke,
            DatasetKind::Cifar10Like,
            TriggerKind::BadNets,
        )
        .with_sigma(1e-3)
        .with_seed(9);
        let a1 = spec.with_cr(1.0).averaged(&cache).unwrap();
        let a5 = spec.with_cr(5.0).averaged(&cache).unwrap();
        assert!(
            a5.asr <= a1.asr + 5.0,
            "cr=5 must not exceed cr=1: {} vs {}",
            a5.asr,
            a1.asr
        );
    }
}
