//! Runs the complete experiment suite (Table I, Fig. 2, Table II,
//! Figs. 3–8) at the profile selected by `REVEIL_PROFILE` (`smoke`,
//! `quick` or `full`; Quick when unset) and writes every table as a CSV,
//! plus the Fig. 2 overlays, under `target/experiments`.
//!
//! All monolithic-cell artifacts share one `ScenarioCache`, so a cell that
//! several figures request trains once for the whole suite. Table II,
//! Fig. 3 and Fig. 4 train seed replicates of their specs and share them:
//! Table II's cr = 5 cells are Fig. 3's cr = 5 cells, and its BadNets ones
//! Fig. 4's σ = 1e-3 cells. Replicate 0 of a spec is the spec itself, at
//! the suite seed, so Fig. 2 explains and Figs. 6–8 audit exactly the
//! cells Table II and Fig. 3 report: Fig. 2's f_B is Table II's CIFAR10
//! BadNets poison-only cell and its f_N Fig. 3's cr = 1 cell, and the
//! Figs. 6–8 grid is Fig. 3's grid. They train no cell of their own: at
//! Smoke and Quick, which run one seed, the suite trains 112 cells, one
//! per (dataset, trigger, cr, σ) the figures name. At Full the detector
//! figures audit replicate 0 of the five that Fig. 3 averages. Fig. 5's
//! restoration trios are cached the same way.
//! Every figure fans the independent cells of its grid out across the
//! `REVEIL_THREADS` worker team through the cache's parallel sweep
//! executor — results are bit-identical to a serial run at any worker
//! count.
//!
//! An unknown profile name or an output that cannot be written stops the
//! run with an error and a non-zero exit status.

use std::error::Error;
use std::process::ExitCode;

use reveil_datasets::DatasetKind;
use reveil_eval::report::TextTable;
use reveil_eval::{
    fig2, fig3, fig4, fig5, fig6, fig7, fig8, table1, table2, Profile, ScenarioCache, ALL_DATASETS,
    DEFAULT_SEED,
};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("reveil-experiments: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints `table` and writes it as `<name>.csv`.
fn emit(table: &TextTable, name: &str) -> std::io::Result<()> {
    println!("{}", table.render());
    table.write_csv(name).map(drop)
}

/// Prints and writes one table per dataset, as `<fig>_<dataset>.csv`.
fn emit_per_dataset(
    fig: &str,
    tables: impl IntoIterator<Item = (DatasetKind, TextTable)>,
) -> std::io::Result<()> {
    for (dataset, table) in tables {
        println!("({})", dataset.label());
        emit(&table, &format!("{fig}_{}", dataset.label().to_lowercase()))?;
    }
    Ok(())
}

fn run() -> Result<(), Box<dyn Error>> {
    let profile = Profile::from_env()?;
    let started = std::time::Instant::now();
    eprintln!("profile: {}", profile.label());
    let cache = ScenarioCache::new();
    let datasets = &ALL_DATASETS;

    println!("Table I — Related-work capability matrix\n");
    emit(&table1::table1(), "table1")?;

    println!("Fig. 2 — GradCAM trigger attention\n");
    let f2 = fig2::run(&cache, profile, 5, DEFAULT_SEED)?;
    emit(&fig2::format(&f2), "fig2")?;

    println!("Table II — Impact of camouflaging\n");
    let t2 = table2::run(&cache, profile, datasets, DEFAULT_SEED)?;
    emit(&table2::format(&t2), "table2")?;

    println!("Fig. 3 — ASR vs camouflage ratio\n");
    let f3 = fig3::run(&cache, profile, datasets, DEFAULT_SEED)?;
    emit_per_dataset("fig3", f3.iter().map(|r| (r.dataset, fig3::format_one(r))))?;

    println!("Fig. 4 — BA/ASR vs noise σ (A1)\n");
    let f4 = fig4::run(&cache, profile, datasets, DEFAULT_SEED)?;
    emit(&fig4::format(&f4), "fig4")?;

    println!("Fig. 5 — Poisoning / camouflaging / unlearning\n");
    let f5 = fig5::run(&cache, profile, datasets, DEFAULT_SEED)?;
    emit(&fig5::format(&f5), "fig5")?;

    println!("Fig. 6 — STRIP\n");
    let f6 = fig6::run(&cache, profile, datasets, DEFAULT_SEED)?;
    emit_per_dataset("fig6", f6.iter().map(|r| (r.dataset, fig6::format_one(r))))?;

    println!("Fig. 7 — Neural Cleanse\n");
    let f7 = fig7::run(&cache, profile, datasets, DEFAULT_SEED)?;
    emit_per_dataset("fig7", f7.iter().map(|r| (r.dataset, fig7::format_one(r))))?;

    println!("Fig. 8 — Beatrix\n");
    let f8 = fig8::run(&cache, profile, datasets, DEFAULT_SEED)?;
    emit_per_dataset("fig8", f8.iter().map(|r| (r.dataset, fig8::format_one(r))))?;

    eprintln!(
        "total wall time: {:.1}s ({} cells trained, {} trios run, {} distinct cells \
         cached, {} workers)",
        started.elapsed().as_secs_f32(),
        cache.trainings(),
        cache.trio_trainings(),
        cache.len(),
        reveil_tensor::parallel::worker_count(),
    );
    Ok(())
}
