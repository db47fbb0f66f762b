//! Fig. 4: BA and ASR of A1 (BadNets) as a function of the camouflage
//! noise σ, with cr = 5.

use reveil_datasets::DatasetKind;
use reveil_triggers::TriggerKind;

use crate::error::EvalError;
use crate::profile::Profile;
use crate::report::{pct, TextTable};
use crate::runner::{ScenarioCache, ScenarioResult, ScenarioSpec};

/// The σ values swept by the paper (10⁻¹ … 10⁻⁵).
pub const SIGMA_VALUES: [f32; 5] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];

/// One dataset's σ sweep.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// The dataset.
    pub dataset: DatasetKind,
    /// BA/ASR per σ, indexed like [`SIGMA_VALUES`].
    pub per_sigma: Vec<ScenarioResult>,
}

impl Fig4Result {
    /// BA spread across the sweep (paper: BA is essentially flat in σ).
    pub fn ba_spread(&self) -> f32 {
        let max = self
            .per_sigma
            .iter()
            .map(|r| r.ba)
            .fold(f32::NEG_INFINITY, f32::max);
        let min = self
            .per_sigma
            .iter()
            .map(|r| r.ba)
            .fold(f32::INFINITY, f32::min);
        max - min
    }
}

/// Runs the Fig. 4 sweep (A1 only, as in the paper): the whole
/// `dataset × σ` grid goes through one [`ScenarioCache::averaged_all`]
/// call.
///
/// # Errors
///
/// Propagates cell-training failures.
pub fn run(
    cache: &ScenarioCache,
    profile: Profile,
    datasets: &[DatasetKind],
    base_seed: u64,
) -> Result<Vec<Fig4Result>, EvalError> {
    let specs: Vec<ScenarioSpec> = datasets
        .iter()
        .flat_map(|&kind| {
            SIGMA_VALUES.map(|sigma| {
                ScenarioSpec::new(profile, kind, TriggerKind::BadNets)
                    .with_cr(5.0)
                    .with_sigma(sigma)
                    .with_seed(base_seed)
            })
        })
        .collect();
    let results = cache.averaged_all(&specs)?;
    Ok(datasets
        .iter()
        .zip(results.chunks(SIGMA_VALUES.len()))
        .map(|(&dataset, per_sigma)| Fig4Result {
            dataset,
            per_sigma: per_sigma.to_vec(),
        })
        .collect())
}

/// Renders the sweep: two rows (BA, ASR) per dataset, one column per σ.
pub fn format(results: &[Fig4Result]) -> TextTable {
    let mut header = vec!["Dataset".to_string(), "Metric".to_string()];
    header.extend(SIGMA_VALUES.iter().map(|s| format!("σ={s:.0e}")));
    let mut table = TextTable::new(header);
    for result in results {
        let mut ba_row = vec![result.dataset.label().to_string(), "BA".to_string()];
        ba_row.extend(result.per_sigma.iter().map(|r| pct(r.ba)));
        table.push_row(ba_row);
        let mut asr_row = vec![result.dataset.label().to_string(), "ASR".to_string()];
        asr_row.extend(result.per_sigma.iter().map(|r| pct(r.asr)));
        table.push_row(asr_row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_layout() {
        let results = vec![Fig4Result {
            dataset: DatasetKind::Cifar10Like,
            per_sigma: vec![
                ScenarioResult {
                    ba: 83.0,
                    asr: 33.61,
                },
                ScenarioResult {
                    ba: 83.0,
                    asr: 18.20,
                },
                ScenarioResult {
                    ba: 83.0,
                    asr: 17.70,
                },
                ScenarioResult {
                    ba: 83.0,
                    asr: 18.18,
                },
                ScenarioResult {
                    ba: 83.0,
                    asr: 20.55,
                },
            ],
        }];
        let table = format(&results);
        let text = table.render();
        assert!(text.contains("σ=1e-1"));
        assert!(text.contains("σ=1e-5"));
        assert!(text.contains("33.61"));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn ba_spread_measures_flatness() {
        let result = Fig4Result {
            dataset: DatasetKind::GtsrbLike,
            per_sigma: vec![
                ScenarioResult {
                    ba: 94.0,
                    asr: 10.0,
                },
                ScenarioResult { ba: 93.0, asr: 8.0 },
            ],
        };
        assert!((result.ba_spread() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn smoke_extreme_sigma_weakens_camouflage() {
        // At σ = 0.1 the noise makes camouflage separable from poison, so
        // ASR should exceed the σ = 1e-3 sweet spot (paper's U-shape, left
        // arm). Smoke scale tolerates equality.
        let cache = ScenarioCache::new();
        let spec = ScenarioSpec::new(
            Profile::Smoke,
            DatasetKind::Cifar10Like,
            TriggerKind::BadNets,
        )
        .with_cr(5.0)
        .with_seed(31);
        let strong = spec.with_sigma(1e-1).averaged(&cache).unwrap();
        let sweet = spec.with_sigma(1e-3).averaged(&cache).unwrap();
        assert!(
            strong.asr + 2.0 >= sweet.asr,
            "high sigma must not camouflage better: {} vs {}",
            strong.asr,
            sweet.asr
        );
    }
}
