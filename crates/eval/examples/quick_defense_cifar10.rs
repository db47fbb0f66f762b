//! One-dataset Quick-profile defense sweep (Figs. 6–8 on CIFAR10) plus
//! Fig. 2, for Quick-profile defense numbers without the full 4-dataset
//! cost.
//!
//! All four figures share one `ScenarioCache`, so the 20 (attack × cr)
//! cells train once and are audited by STRIP, Neural Cleanse and Beatrix.

use reveil_datasets::DatasetKind;
use reveil_eval::{fig2, fig6, fig7, fig8, EvalError, Profile, ScenarioCache, DEFAULT_SEED};

fn main() -> Result<(), EvalError> {
    let profile = Profile::Quick;
    let datasets = [DatasetKind::Cifar10Like];
    let cache = ScenarioCache::new();

    let f2 = fig2::run(&cache, profile, 5, DEFAULT_SEED)?;
    println!("Fig. 2 (quick)\n{}", fig2::format(&f2).render());

    for result in fig6::run(&cache, profile, &datasets, DEFAULT_SEED)? {
        println!(
            "Fig. 6 (quick, {})\n{}",
            result.dataset.label(),
            fig6::format_one(&result).render()
        );
    }
    for result in fig7::run(&cache, profile, &datasets, DEFAULT_SEED)? {
        println!(
            "Fig. 7 (quick, {})\n{}",
            result.dataset.label(),
            fig7::format_one(&result).render()
        );
    }
    for result in fig8::run(&cache, profile, &datasets, DEFAULT_SEED)? {
        println!(
            "Fig. 8 (quick, {})\n{}",
            result.dataset.label(),
            fig8::format_one(&result).render()
        );
    }
    eprintln!(
        "trained {} cells for the whole sweep (three defenses audit each)",
        cache.trainings()
    );
    Ok(())
}
