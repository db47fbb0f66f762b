//! The three workloads: their set-up and one measured iteration each.
//!
//! Every iteration is a closed loop on the main thread: each call into
//! `reveil-eval` starts after the previous one returned. Fan-out, where
//! there is any, happens inside `ScenarioCache` at the default
//! `parallel::worker_count()`.

use reveil_datasets::DatasetKind;
use reveil_defense::{Defense, DefenseVerdict};
use reveil_eval::fig3::CR_VALUES;
use reveil_eval::{
    fig2, fig3, fig4, fig5, fig6, fig7, fig8, lock_scenario, table2, Profile, ScenarioCache,
    ScenarioResult, ScenarioSpec, TrainedScenario, TrioResult, UnlearnMethod,
};
use reveil_tensor::rng;
use reveil_triggers::TriggerKind;

use crate::report::Checks;
use crate::timed_defense::TimedDefense;
use crate::trace::{measure, Stopwatch, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SuiteSmoke,
    SingleQuick,
    AuditQuick,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SuiteSmoke,
        Workload::SingleQuick,
        Workload::AuditQuick,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteSmoke => "suite-smoke",
            Workload::SingleQuick => "single-quick",
            Workload::AuditQuick => "audit-quick",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The profile the workload runs at (`small` shrinks every workload to
    /// Smoke scale on one dataset, for the benchmark's own tests).
    pub fn profile(self, small: bool) -> Profile {
        match self {
            Workload::SuiteSmoke => Profile::Smoke,
            _ if small => Profile::Smoke,
            _ => Profile::Quick,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    Train,
    Trio,
    Audit,
}

impl PhaseKind {
    pub const ALL: [PhaseKind; 3] = [PhaseKind::Train, PhaseKind::Trio, PhaseKind::Audit];

    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Train => "train",
            PhaseKind::Trio => "trio",
            PhaseKind::Audit => "audit",
        }
    }
}

/// One timed phase: its wall and CPU time and the operations it completed
/// (cells trained, trios run or audits made).
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub kind: PhaseKind,
    pub sw: Stopwatch,
    pub ops: usize,
}

fn phase<R>(phases: &mut Vec<Phase>, kind: PhaseKind, f: impl FnOnce() -> (R, usize)) -> R {
    let ((out, ops), sw) = measure(f);
    phases.push(Phase { kind, sw, ops });
    out
}

/// The paper's quantities a run produced, in percent.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    /// Benign accuracy of every monolithic cell read back.
    pub ba: Vec<f32>,
    /// ASR(poison-only) − ASR(camouflaged), per trio or cell pair.
    pub conceal_gap: Vec<f32>,
    /// ASR(unlearned) − ASR(camouflaged), per trio.
    pub restore_gap: Vec<f32>,
}

impl Quality {
    fn trio(&mut self, checks: &mut Checks, what: &str, trio: &TrioResult) {
        for (stage, r) in [
            ("poisoning", trio.poisoning),
            ("camouflaging", trio.camouflaging),
            ("unlearning", trio.unlearning),
        ] {
            cell_result(checks, &format!("{what} {stage}"), r);
        }
        let report = trio.unlearn_report;
        checks.hash_u64(report.samples_retrained as u64);
        checks.hash_u64(report.samples_full_retrain as u64);
        self.conceal_gap
            .push(trio.poisoning.asr - trio.camouflaging.asr);
        self.restore_gap
            .push(trio.unlearning.asr - trio.camouflaging.asr);
    }
}

fn cell_result(checks: &mut Checks, what: &str, r: ScenarioResult) {
    checks.percent(&format!("{what} BA"), r.ba);
    checks.percent(&format!("{what} ASR"), r.asr);
}

/// A verdict tagged with the camouflage ratio of the audited cell.
#[derive(Debug, Clone, Copy)]
pub struct Tagged {
    pub defense: usize,
    pub cr: f32,
    pub detected: bool,
}

fn verdict(checks: &mut Checks, what: &str, v: &DefenseVerdict) {
    checks.finite(&format!("{what} score"), v.score);
    checks.finite(&format!("{what} threshold"), v.threshold);
    checks.hash_u64(u64::from(v.detected));
}

/// Everything one measured iteration produced.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    pub sw: Stopwatch,
    pub phases: Vec<Phase>,
    pub checks: Checks,
    pub quality: Quality,
    pub verdicts: Vec<Tagged>,
    /// Cell specs named by the iteration's grids and requests.
    pub cells_requested: usize,
    /// Cells the iteration actually trained (cache misses).
    pub cells_trained: usize,
}

/// What a workload keeps between set-up and its iterations.
pub struct Ctx<'a> {
    pub profile: Profile,
    pub datasets: Vec<DatasetKind>,
    pub seed: u64,
    pub tracer: &'a Tracer,
    /// The three pooled auditors (STRIP, Neural Cleanse, Beatrix), each
    /// behind a timing decorator that lives for the whole run.
    pub panel: [TimedDefense<'a>; 3],
}

pub const DEFENSE_KEYS: [&str; 3] = ["strip", "nc", "beatrix"];

impl Ctx<'_> {
    /// A spec seed derived from the workload seed.
    pub fn spec_seed(&self, stream: u64) -> u64 {
        rng::derive_seed(self.seed, stream)
    }

    fn budget(&self) -> usize {
        self.profile.defense_sample_count()
    }
}

/// The Figs. 6–8 grid (dataset × attack × cr, σ = 1e-3).
fn defense_grid(
    profile: Profile,
    datasets: &[DatasetKind],
    crs: &[f32],
    seed: u64,
) -> Vec<ScenarioSpec> {
    datasets
        .iter()
        .flat_map(|&kind| {
            TriggerKind::ALL.iter().flat_map(move |&trigger| {
                crs.iter().map(move |&cr| {
                    ScenarioSpec::new(profile, kind, trigger)
                        .with_cr(cr)
                        .with_sigma(1e-3)
                        .with_seed(seed)
                })
            })
        })
        .collect()
}

/// Audits `specs` with every auditor of the panel through `audit_all`,
/// checking and tagging the verdicts.
fn audit_grid(
    ctx: &Ctx,
    cache: &ScenarioCache,
    specs: &[ScenarioSpec],
    checks: &mut Checks,
    tagged: &mut Vec<Tagged>,
) -> usize {
    let mut audits = 0;
    for (d, timed) in ctx.panel.iter().enumerate() {
        checks.attempt(specs.len());
        let name = format!("eval.audit_all.{}", DEFENSE_KEYS[d]);
        let verdicts = ctx
            .tracer
            .span(&name, || cache.audit_all(specs, timed, ctx.budget()));
        let Some(verdicts) = checks.result(&name, verdicts) else {
            continue;
        };
        checks.rows(&name, verdicts.len(), specs.len());
        for (spec, v) in specs.iter().zip(&verdicts) {
            verdict(checks, &name, v);
            tagged.push(Tagged {
                defense: d,
                cr: spec.cr,
                detected: v.detected,
            });
        }
        audits += verdicts.len();
    }
    audits
}

// ---------------------------------------------------------------- suite-smoke

/// One pass of the paper suite at Smoke through one shared cache: Fig. 2,
/// Table II, Figs. 3–5, then the Figs. 6–8 grid pre-warmed with
/// `train_all` and audited by the three figure runners.
pub fn suite_iteration(ctx: &Ctx, cache: &ScenarioCache) -> Iteration {
    let tr = ctx.tracer;
    let p = ctx.profile;
    let ds = ctx.datasets.as_slice();
    let base = ctx.spec_seed(0x5017E);
    let mut it = Iteration::default();
    let checks = &mut it.checks;
    let quality = &mut it.quality;
    let phases = &mut it.phases;
    let classes = p.dataset_config(DatasetKind::Cifar10Like, 0).num_classes();
    let n = ds.len();
    let attacks = TriggerKind::ALL.len();
    let grid = defense_grid(p, ds, &CR_VALUES, base);
    let table2_cells = n * attacks * 2 * p.num_seeds();
    let fig3_cells = n * attacks * CR_VALUES.len() * p.num_seeds();
    let fig4_cells = n * fig4::SIGMA_VALUES.len() * p.num_seeds();
    it.cells_requested = 2 + table2_cells + fig3_cells + fig4_cells + 4 * grid.len();

    let (_, sw) = measure(|| {
        phase(phases, PhaseKind::Train, || {
            let before = cache.trainings();
            let f2 = tr.span("eval.fig2", || fig2::run(cache, p, 5, base));
            if let Some(f2) = checks.result("fig2", f2) {
                // One sample per non-target class, at most five.
                checks.rows("fig2", f2.samples.len(), 5.min(classes - 1));
                for s in &f2.samples {
                    checks.finite("fig2 attention f_B", s.mass_poisoned);
                    checks.finite("fig2 attention f_N", s.mass_noisy);
                }
            }
            let t2 = tr.span("eval.table2", || table2::run(cache, p, ds, base));
            if let Some(t2) = checks.result("table2", t2) {
                checks.rows("table2", t2.len(), n);
                for row in &t2 {
                    checks.rows("table2 poison", row.poison.len(), attacks);
                    checks.rows("table2 camouflage", row.camouflage.len(), attacks);
                    for r in &row.poison {
                        cell_result(checks, "table2 poison", *r);
                        quality.ba.push(r.ba);
                    }
                    for r in &row.camouflage {
                        cell_result(checks, "table2 camouflage", *r);
                    }
                }
            }
            let f3 = tr.span("eval.fig3", || fig3::run(cache, p, ds, base));
            if let Some(f3) = checks.result("fig3", f3) {
                checks.rows("fig3", f3.len(), n);
                for r in &f3 {
                    attack_grid(checks, "fig3 ASR", &r.asr, true);
                }
            }
            let f4 = tr.span("eval.fig4", || fig4::run(cache, p, ds, base));
            if let Some(f4) = checks.result("fig4", f4) {
                checks.rows("fig4", f4.len(), n);
                for r in &f4 {
                    checks.rows("fig4 sigmas", r.per_sigma.len(), fig4::SIGMA_VALUES.len());
                    for c in &r.per_sigma {
                        cell_result(checks, "fig4", *c);
                    }
                }
            }
            ((), cache.trainings() - before)
        });
        phase(phases, PhaseKind::Trio, || {
            let before = cache.trio_trainings();
            let f5 = tr.span("eval.fig5", || fig5::run(cache, p, ds, base));
            if let Some(f5) = checks.result("fig5", f5) {
                checks.rows("fig5", f5.len(), n);
                for r in &f5 {
                    checks.rows("fig5 trios", r.trios.len(), attacks);
                    for trio in &r.trios {
                        quality.trio(checks, "fig5", trio);
                    }
                }
            }
            ((), cache.trio_trainings() - before)
        });
        phase(phases, PhaseKind::Train, || {
            let before = cache.trainings();
            let cells = tr.span("eval.train_all", || cache.train_all(&grid));
            if let Some(cells) = checks.result("fig6-8 grid", cells) {
                for cell in &cells {
                    let r = lock_scenario(cell).result;
                    cell_result(checks, "fig6-8 grid cell", r);
                    quality.ba.push(r.ba);
                }
            }
            ((), cache.trainings() - before)
        });
        phase(phases, PhaseKind::Audit, || {
            let mut done = 0;
            let f6 = tr.span("eval.fig6", || fig6::run(cache, p, ds, base));
            if let Some(f6) = checks.result("fig6", f6) {
                checks.rows("fig6", f6.len(), n);
                for r in &f6 {
                    attack_grid(checks, "fig6 decision", &r.decision, false);
                }
                done += grid.len();
            }
            let f7 = tr.span("eval.fig7", || fig7::run(cache, p, ds, base));
            if let Some(f7) = checks.result("fig7", f7) {
                checks.rows("fig7", f7.len(), n);
                for r in &f7 {
                    attack_grid(checks, "fig7 anomaly index", &r.index, false);
                }
                done += grid.len();
            }
            let f8 = tr.span("eval.fig8", || fig8::run(cache, p, ds, base));
            if let Some(f8) = checks.result("fig8", f8) {
                checks.rows("fig8", f8.len(), n);
                for r in &f8 {
                    attack_grid(checks, "fig8 anomaly index", &r.index, false);
                }
                done += grid.len();
            }
            ((), done)
        });
    });
    it.sw = sw;
    it.cells_trained = cache.trainings();
    it.checks
        .attempt(cache.trainings() + cache.trio_trainings() + 3 * grid.len());
    it
}

/// One dataset's attack × cr grid (Figs. 3, 6–8): a row per attack, a
/// value per camouflage ratio, each a percentage or at least finite.
fn attack_grid(checks: &mut Checks, what: &str, rows: &[Vec<f32>], percent: bool) {
    checks.rows(what, rows.len(), TriggerKind::ALL.len());
    for row in rows {
        checks.rows(what, row.len(), CR_VALUES.len());
        for &v in row {
            if percent {
                checks.percent(what, v);
            } else {
                checks.finite(what, v);
            }
        }
    }
}

/// The cr = 0 and cr = 5 cells of the suite's cache (Table II trains
/// both), audited by the decorated panel: the suite's own figure runners
/// build their auditors internally, so per-audit times come from this
/// probe.
pub fn suite_defense_probe(ctx: &Ctx, cache: &ScenarioCache, checks: &mut Checks) -> Vec<Tagged> {
    let specs = defense_grid(
        ctx.profile,
        &ctx.datasets,
        &[0.0, 5.0],
        ctx.spec_seed(0x5017E),
    );
    let mut tagged = Vec::new();
    ctx.tracer.span("probe.defense", || {
        audit_grid(ctx, cache, &specs, checks, &mut tagged)
    });
    tagged
}

// --------------------------------------------------------------- single-quick

/// The four single cells: one per dataset (so all three Quick model
/// families), one attack each, the first a poison-only control.
fn single_specs(ctx: &Ctx) -> Vec<ScenarioSpec> {
    ctx.datasets
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            ScenarioSpec::new(
                ctx.profile,
                kind,
                TriggerKind::ALL[i % TriggerKind::ALL.len()],
            )
            .with_cr(if i == 0 { 0.0 } else { 5.0 })
            .with_sigma(1e-3)
            .with_seed(ctx.spec_seed(0x5146 + i as u64))
        })
        .collect()
}

/// The restoration trio of single-quick: a tiny_cnn SISA trio.
fn single_trio_specs(ctx: &Ctx) -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new(ctx.profile, ctx.datasets[0], TriggerKind::BadNets)
            .with_cr(5.0)
            .with_sigma(1e-3)
            .with_seed(ctx.spec_seed(0x7210))
            .with_unlearner(UnlearnMethod::Sisa),
    ]
}

/// Quick operations one at a time on the main thread, with no cell
/// fan-out: intra-op parallelism is live in every kernel.
pub fn single_iteration(ctx: &Ctx) -> Iteration {
    let tr = ctx.tracer;
    let specs = single_specs(ctx);
    let trios = single_trio_specs(ctx);
    let mut it = Iteration {
        cells_requested: specs.len(),
        ..Iteration::default()
    };
    let checks = &mut it.checks;
    let quality = &mut it.quality;
    let phases = &mut it.phases;
    let verdicts = &mut it.verdicts;
    let mut trained = 0;
    let (_, sw) = measure(|| {
        let mut cells: Vec<(f32, TrainedScenario)> = phase(phases, PhaseKind::Train, || {
            checks.attempt(specs.len());
            let cells: Vec<(f32, TrainedScenario)> = specs
                .iter()
                .filter_map(|spec| {
                    let cell = checks.result("train", tr.span("eval.train", || spec.train()))?;
                    cell_result(checks, "train", cell.result);
                    quality.ba.push(cell.result.ba);
                    Some((spec.cr, cell))
                })
                .collect();
            let n = cells.len();
            (cells, n)
        });
        trained = cells.len();
        phase(phases, PhaseKind::Trio, || {
            checks.attempt(trios.len());
            let mut done = 0;
            for spec in &trios {
                let trio = tr.span("eval.trio", || spec.restoration_trio());
                if let Some(trio) = checks.result("restoration trio", trio) {
                    quality.trio(checks, "trio", &trio);
                    done += 1;
                }
            }
            ((), done)
        });
        // Audit the poison-only control and the last camouflaged cell.
        let audited = [0, cells.len().saturating_sub(1)];
        phase(phases, PhaseKind::Audit, || {
            let mut done = 0;
            for (d, timed) in ctx.panel.iter().enumerate() {
                let name = format!("eval.audit.{}", DEFENSE_KEYS[d]);
                for &i in &audited {
                    let Some((cr, cell)) = cells.get_mut(i) else {
                        continue;
                    };
                    checks.attempt(1);
                    let budget = ctx.budget();
                    let v = tr.span(&name, || cell.audit(timed as &dyn Defense, budget));
                    if let Some(v) = checks.result(&name, v) {
                        verdict(checks, &name, &v);
                        verdicts.push(Tagged {
                            defense: d,
                            cr: *cr,
                            detected: v.detected,
                        });
                        done += 1;
                    }
                }
            }
            ((), done)
        });
    });
    it.sw = sw;
    it.cells_trained = trained;
    it
}

// ---------------------------------------------------------------- audit-quick

/// The audited cells: two model families (tiny_cnn and EfficientNet at
/// Quick), each as a poison-only control (cr = 0) and a camouflaged
/// variant (cr = 5).
pub fn audit_specs(ctx: &Ctx) -> Vec<ScenarioSpec> {
    let kinds = if ctx.datasets.len() > 1 {
        vec![DatasetKind::Cifar10Like, DatasetKind::Cifar100Like]
    } else {
        ctx.datasets.clone()
    };
    kinds
        .iter()
        .enumerate()
        .flat_map(|(i, &kind)| {
            [0.0, 5.0].map(|cr| {
                ScenarioSpec::new(ctx.profile, kind, TriggerKind::BadNets)
                    .with_cr(cr)
                    .with_sigma(1e-3)
                    .with_seed(ctx.spec_seed(0xA0D1 + i as u64))
            })
        })
        .collect()
}

/// Set-up of audit-quick: trains the audited cells through `train_all`
/// into a fresh cache. Returns the set-up record as an iteration (its
/// train phase feeds `cells_per_s`).
pub fn audit_setup(ctx: &Ctx, cache: &ScenarioCache, specs: &[ScenarioSpec]) -> Iteration {
    let mut it = Iteration {
        cells_requested: specs.len(),
        ..Iteration::default()
    };
    let checks = &mut it.checks;
    let quality = &mut it.quality;
    let phases = &mut it.phases;
    let (_, sw) = measure(|| {
        phase(phases, PhaseKind::Train, || {
            checks.attempt(specs.len());
            let cells = ctx.tracer.span("eval.train_all", || cache.train_all(specs));
            let Some(cells) = checks.result("train_all", cells) else {
                return ((), 0);
            };
            let results: Vec<ScenarioResult> =
                cells.iter().map(|c| lock_scenario(c).result).collect();
            for r in &results {
                cell_result(checks, "audit cell", *r);
                quality.ba.push(r.ba);
            }
            for pair in results.chunks(2) {
                if let [control, camouflaged] = pair {
                    quality.conceal_gap.push(control.asr - camouflaged.asr);
                }
            }
            ((), cache.trainings())
        });
    });
    it.sw = sw;
    it.cells_trained = cache.trainings();
    it
}

/// One measured pass of audit-quick: `audit_all` over every cell with each
/// of the three pooled auditors.
pub fn audit_iteration(ctx: &Ctx, cache: &ScenarioCache, specs: &[ScenarioSpec]) -> Iteration {
    let mut it = Iteration::default();
    let checks = &mut it.checks;
    let phases = &mut it.phases;
    let verdicts = &mut it.verdicts;
    let (_, sw) = measure(|| {
        phase(phases, PhaseKind::Audit, || {
            ((), audit_grid(ctx, cache, specs, checks, verdicts))
        });
    });
    it.sw = sw;
    it
}
