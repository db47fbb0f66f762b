//! Cross-figure cache reuse: two figures requesting the same
//! `(profile, dataset, trigger, cr, σ, seed)` cell must hit the scenario
//! cache instead of retraining it.

use reveil_datasets::DatasetKind;
use reveil_eval::{fig2, fig6, fig7, fig8, lock_scenario, Profile, ScenarioCache, ScenarioSpec};
use reveil_triggers::TriggerKind;

#[test]
fn figures_share_trained_cells_through_the_cache() {
    let cache = ScenarioCache::new();
    let profile = Profile::Smoke;
    let datasets = [DatasetKind::Cifar10Like];
    let triggers = [TriggerKind::BadNets];
    let crs = [5.0f32];
    let seed = 2025;

    // Figs. 6, 7 and 8 all sweep the same (dataset, trigger, cr, σ, seed)
    // grid; restricted to one cell here, the three figure runners must
    // train it exactly once between them.
    let f6 = fig6::run_grid(&cache, profile, &datasets, &triggers, &crs, seed).expect("fig6 sweep");
    assert_eq!(cache.trainings(), 1, "fig6 trains the cell");

    let f7 = fig7::run_grid(&cache, profile, &datasets, &triggers, &crs, seed).expect("fig7 sweep");
    assert_eq!(
        cache.trainings(),
        1,
        "fig7 must reuse fig6's trained cell, not retrain it"
    );

    let f8 = fig8::run_grid(&cache, profile, &datasets, &triggers, &crs, seed).expect("fig8 sweep");
    assert_eq!(
        cache.trainings(),
        1,
        "fig8 must reuse the same trained cell as figs. 6 and 7"
    );

    assert!(f6[0].decision[0][0].is_finite());
    assert!(f7[0].index[0][0].is_finite());
    assert!(f8[0].index[0][0].is_finite());
    assert_eq!(cache.len(), 1);
}

#[test]
fn explained_and_audited_cells_are_the_cells_the_asr_figures_report() {
    let cache = ScenarioCache::new();
    let profile = Profile::Smoke;
    let seed = 2025;
    let spec = ScenarioSpec::new(profile, DatasetKind::Cifar10Like, TriggerKind::BadNets)
        .with_sigma(1e-3)
        .with_seed(seed);

    // The path Table II and Fig. 3 take: the cr = 0 and cr = 1 cells,
    // averaged over the profile's seeds (one at Smoke).
    let poison_only = spec.with_cr(0.0).averaged(&cache).expect("cr = 0 cell");
    let camouflaged = spec.with_cr(1.0).averaged(&cache).expect("cr = 1 cell");
    assert_eq!(cache.trainings(), 2);

    // Fig. 2 explains f_B (cr = 0) and f_N (cr = 1), and Figs. 6–8 audit
    // the cr = 1 cell: all of them are the cells just averaged.
    fig2::run(&cache, profile, 1, seed).expect("fig2");
    fig6::run_grid(
        &cache,
        profile,
        &[DatasetKind::Cifar10Like],
        &[TriggerKind::BadNets],
        &[1.0],
        seed,
    )
    .expect("fig6 sweep");
    assert_eq!(
        cache.trainings(),
        2,
        "Figs. 2 and 6 must reuse the cells Table II and Fig. 3 trained"
    );
    let result =
        |cr: f32| lock_scenario(&cache.trained(&spec.with_cr(cr)).expect("cached cell")).result;
    assert_eq!(result(0.0), poison_only);
    assert_eq!(result(1.0), camouflaged);
}
