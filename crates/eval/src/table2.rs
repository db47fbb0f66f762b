//! Table II: impact of camouflaging on BA/ASR for A1–A4 × four datasets.

use reveil_datasets::DatasetKind;
use reveil_triggers::TriggerKind;

use crate::error::EvalError;
use crate::profile::Profile;
use crate::report::{pct, TextTable};
use crate::runner::{grid_specs, ScenarioCache, ScenarioResult};

/// One dataset's Table II block: poison and camouflage rows per attack.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The dataset.
    pub dataset: DatasetKind,
    /// Poison-only results, indexed like [`TriggerKind::ALL`].
    pub poison: Vec<ScenarioResult>,
    /// Camouflaged (cr = 5, σ = 1e-3) results, same indexing.
    pub camouflage: Vec<ScenarioResult>,
}

/// Runs Table II at a profile.
///
/// `datasets` selects the evaluated datasets (all four for the paper
/// layout; subsets for quicker runs). The whole
/// `dataset × attack × {poison, camouflage}` grid goes through one
/// [`ScenarioCache::averaged_all`] call.
///
/// # Errors
///
/// Propagates cell-training failures.
pub fn run(
    cache: &ScenarioCache,
    profile: Profile,
    datasets: &[DatasetKind],
    base_seed: u64,
) -> Result<Vec<Table2Row>, EvalError> {
    let specs = grid_specs(profile, datasets, &TriggerKind::ALL, &[0.0, 5.0], base_seed);
    let results = cache.averaged_all(&specs)?;
    // Each dataset's block alternates (poison, camouflage) per attack.
    Ok(datasets
        .iter()
        .zip(results.chunks(2 * TriggerKind::ALL.len()))
        .map(|(&dataset, block)| Table2Row {
            dataset,
            poison: block.iter().step_by(2).copied().collect(),
            camouflage: block.iter().skip(1).step_by(2).copied().collect(),
        })
        .collect())
}

/// Renders the results in the paper's layout: one row per
/// (scenario, dataset), columns `(Ai, BA)`/`(Ai, ASR)`.
pub fn format(rows: &[Table2Row]) -> TextTable {
    let mut header = vec!["Scenario".to_string(), "Dataset".to_string()];
    for trigger in TriggerKind::ALL {
        header.push(format!("({}, BA)", trigger.paper_id()));
        header.push(format!("({}, ASR)", trigger.paper_id()));
    }
    let mut table = TextTable::new(header);
    for row in rows {
        let mut poison_cells = vec!["Poison".to_string(), row.dataset.label().to_string()];
        let mut camo_cells = vec!["Camouflage".to_string(), row.dataset.label().to_string()];
        for i in 0..TriggerKind::ALL.len() {
            poison_cells.push(pct(row.poison[i].ba));
            poison_cells.push(pct(row.poison[i].asr));
            camo_cells.push(pct(row.camouflage[i].ba));
            camo_cells.push(pct(row.camouflage[i].asr));
        }
        table.push_row(poison_cells);
        table.push_row(camo_cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_produces_paper_layout() {
        let rows = vec![Table2Row {
            dataset: DatasetKind::Cifar10Like,
            poison: vec![
                ScenarioResult {
                    ba: 83.05,
                    asr: 100.0
                };
                4
            ],
            camouflage: vec![
                ScenarioResult {
                    ba: 83.04,
                    asr: 17.70
                };
                4
            ],
        }];
        let table = format(&rows);
        let text = table.render();
        assert!(text.contains("(A1, BA)"));
        assert!(text.contains("(A4, ASR)"));
        assert!(text.contains("Poison"));
        assert!(text.contains("Camouflage"));
        assert!(text.contains("17.70"));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn smoke_run_single_cell_shows_the_camouflage_drop() {
        let cache = ScenarioCache::new();
        let rows =
            run(&cache, Profile::Smoke, &[DatasetKind::Cifar10Like], 42).expect("table2 cells");
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        // At least three of the four attacks must show the headline drop
        // (WaNet occasionally borderline at smoke scale).
        let drops = (0..4)
            .filter(|&i| row.camouflage[i].asr < row.poison[i].asr * 0.6)
            .count();
        assert!(
            drops >= 3,
            "poison {:?} camouflage {:?}",
            row.poison,
            row.camouflage
        );
    }
}
