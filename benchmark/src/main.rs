//! The ReVeil benchmark: one command that runs a workload at a seed,
//! checks its outputs and prints every metric with its unit.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload suite-smoke --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output holds the end-to-end
//! metrics; with `--trace 1` it holds the per-layer metrics of a traced
//! run. See `benchmark/README.md` for the metric list.

mod probes;
mod report;
mod timed_defense;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use reveil_datasets::DatasetKind;
use reveil_eval::{ScenarioCache, ScenarioSpec, ALL_DATASETS};
use reveil_tensor::parallel;
use reveil_triggers::TriggerKind;

use report::{median, tail, Checks, Metrics};
use timed_defense::TimedDefense;
use trace::{measure, peak_rss_mb, Tracer};
use workloads::{Ctx, Iteration, PhaseKind, Tagged, Workload, DEFENSE_KEYS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

const USAGE: &str = "usage: reveil-benchmark --workload <suite-smoke|single-quick|audit-quick> \
                     --seed <n> --seconds <n> --trace <0|1> [--small]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut small) =
        (None, None, None, None, false);
    while let Some(flag) = raw.next() {
        if flag == "--small" {
            small = true;
            continue;
        }
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        small,
    })
}

/// The end-to-end metrics, printed by an untraced run.
fn end_to_end_names() -> Vec<(String, &'static str)> {
    [
        ("wall_s", "s"),
        ("setup_s", "s"),
        ("cpu_s", "s"),
        ("cells_per_s", "1/s"),
        ("audits_per_s", "1/s"),
        ("peak_rss_mb", "MB"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

const FIGURES: [&str; 9] = [
    "fig2",
    "table2",
    "fig3",
    "fig4",
    "fig5",
    "train_all",
    "fig6",
    "fig7",
    "fig8",
];

/// The per-layer metrics, printed by a traced run.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: String, u: &'static str| names.push((n, u));
    for fig in FIGURES.iter().filter(|f| **f != "train_all") {
        add(format!("eval.{fig}_s"), "s");
    }
    for kind in PhaseKind::ALL {
        add(format!("eval.{}_all_s", kind.label()), "s");
        add(format!("eval.{}_busy_ratio", kind.label()), "ratio");
    }
    add("eval.trios_per_s".into(), "1/s");
    add("eval.ba_pct".into(), "%");
    add("eval.conceal_gap_pct".into(), "%");
    add("eval.restore_gap_pct".into(), "%");
    add("eval.fail_frac".into(), "ratio");
    add("eval.cells_requested".into(), "count");
    add("eval.cells_trained".into(), "count");
    add("eval.cache_hit_ratio".into(), "ratio");
    add("trace.overhead_pct".into(), "%");
    add("trace.unaccounted_pct".into(), "%");
    for (fam, _, _) in probes::FAMILIES {
        for stage in probes::STEP_STAGES {
            add(format!("nn.{fam}.{stage}_ms"), "ms");
        }
        add(format!("nn.{fam}.step_serial_ms"), "ms");
        add(format!("nn.{fam}.step_team_ms"), "ms");
        add(format!("nn.{fam}.team_speedup"), "ratio");
        add(format!("nn.{fam}.infer_ms"), "ms");
    }
    add("tensor.sys_cpu_s".into(), "s");
    add("datasets.generate_ms".into(), "ms");
    for op in ["craft", "inject", "measure"] {
        add(format!("core.{op}_ms"), "ms");
    }
    add("unlearn.provider_train_ms".into(), "ms");
    add("unlearn.unlearn_ms".into(), "ms");
    add("unlearn.samples_retrained".into(), "count");
    add("unlearn.cost_fraction".into(), "ratio");
    for d in DEFENSE_KEYS {
        add(format!("defense.{d}_ms"), "ms");
        add(format!("defense.{d}_tail_ms"), "ms");
        add(format!("defense.{d}_tail_pctile"), "%");
        add(format!("defense.{d}_n"), "count");
        add(format!("defense.{d}.fired_control"), "count");
        add(format!("defense.{d}.fired_camouflaged"), "count");
    }
    names
}

/// The environment every result carries.
struct Env {
    workers: usize,
    reveil_threads: String,
    nproc: usize,
    git_rev: String,
}

impl Env {
    fn read() -> Self {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            });
        Self {
            workers: parallel::worker_count(),
            reveil_threads: std::env::var("REVEIL_THREADS").unwrap_or_else(|_| "unset".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev,
        }
    }

    fn oversubscribed(&self) -> bool {
        self.workers > self.nproc
    }
}

fn mean(values: &[f32]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| f64::from(v)).sum::<f64>() / values.len() as f64
}

/// Σ ops / Σ wall over every phase of `kind` in `records`.
fn throughput<'a>(records: impl Iterator<Item = &'a Iteration>, kind: PhaseKind) -> f64 {
    let (ops, wall) = records
        .flat_map(|it| it.phases.iter().filter(move |p| p.kind == kind))
        .fold((0usize, 0.0f64), |(o, w), p| (o + p.ops, w + p.sw.wall));
    if wall > 0.0 {
        ops as f64 / wall
    } else {
        0.0
    }
}

/// Σ phase wall of `kind` per record, averaged over `records`.
fn phase_wall(records: &[&Iteration], kind: PhaseKind) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records
        .iter()
        .flat_map(|it| it.phases.iter().filter(|p| p.kind == kind))
        .fold(0.0, |w, p| w + p.sw.wall)
        / records.len() as f64
}

/// CPU s / (wall s × workers) over every phase of `kind`.
fn busy_ratio<'a>(
    records: impl Iterator<Item = &'a Iteration>,
    kind: PhaseKind,
    workers: usize,
) -> f64 {
    let (cpu, wall) = records
        .flat_map(|it| it.phases.iter().filter(move |p| p.kind == kind))
        .fold((0.0, 0.0), |(c, w), p| {
            (c + p.sw.cpu.total(), w + p.sw.wall)
        });
    if wall > 0.0 {
        cpu / (wall * workers as f64)
    } else {
        0.0
    }
}

fn fired(tagged: &[Tagged], defense: usize) -> (usize, usize) {
    tagged
        .iter()
        .filter(|t| t.defense == defense && t.detected)
        .fold(
            (0, 0),
            |(c, k), t| if t.cr == 0.0 { (c + 1, k) } else { (c, k + 1) },
        )
}

/// The cheap set-up of the workloads whose cells are trained inside the
/// measured phase: one cell trained on the main thread.
fn warm_up(ctx: &Ctx, checks: &mut Checks) {
    let spec = ScenarioSpec::new(ctx.profile, DatasetKind::Cifar10Like, TriggerKind::BadNets)
        .with_seed(ctx.spec_seed(0x3A2A));
    if let Some(cell) = checks.result("warm-up cell", spec.train()) {
        checks.percent("warm-up BA", cell.result.ba);
        checks.percent("warm-up ASR", cell.result.asr);
    }
}

/// Everything a run measured.
struct Run {
    setup_s: f64,
    /// Set-ups that trained cells (audit-quick), with their train phases.
    setups: Vec<Iteration>,
    /// Measured iterations, each flagged traced or not.
    records: Vec<(Iteration, bool)>,
    /// Per traced iteration: % of its wall not covered by top-level spans.
    unaccounted_pct: Vec<f64>,
    /// Verdicts of the suite's defense probe (suite-smoke, traced only).
    probe_verdicts: Vec<Tagged>,
    /// SISA unlearning report of the probe: samples retrained, cost
    /// fraction.
    unlearn: (f64, f64),
    /// Peak RSS after set-up and the first iteration, in MB. Later
    /// iterations only reuse freed memory, so their peak depends on how the
    /// allocator happened to place it.
    peak_rss_mb: f64,
}

fn run(ctx: &Ctx, args: &Args, checks: &mut Checks) -> Run {
    let tracer = ctx.tracer;
    // Set-up, before timing, repeated so that `setup_s` is a median.
    // audit-quick trains its cells into a fresh cache each time and keeps
    // the last; the other workloads warm up by training one cell.
    let audit_specs = workloads::audit_specs(ctx);
    let mut audit_cache = ScenarioCache::new();
    let mut setups: Vec<Iteration> = Vec::new();
    let mut walls = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let wall = match args.workload {
            Workload::AuditQuick => {
                audit_cache = ScenarioCache::new();
                let record = workloads::audit_setup(ctx, &audit_cache, &audit_specs);
                if let Some(first) = setups.first() {
                    if record.checks.digest() != first.checks.digest() {
                        checks.fail("a repeated set-up trained different cells");
                    }
                }
                checks.absorb_counts(&record.checks);
                let wall = record.sw.wall;
                setups.push(record);
                wall
            }
            _ => measure(|| warm_up(ctx, checks)).1.wall,
        };
        walls.push(wall);
    }
    let setup_s = median(&walls);

    // Measured phase: a closed loop of iterations until the next one
    // would overrun `--seconds`. A traced run alternates untraced and
    // traced iterations so that it can report its own overhead.
    let mut records: Vec<(Iteration, bool)> = Vec::new();
    let mut unaccounted_pct = Vec::new();
    let mut suite_cache: Option<ScenarioCache> = None;
    let mut peak_rss = 0.0;
    let started = Instant::now();
    loop {
        let traced = args.trace && records.len() % 2 == 1;
        tracer.set_enabled(traced);
        let mark = tracer.mark();
        let it = match args.workload {
            Workload::SuiteSmoke => {
                drop(suite_cache.take());
                let cache = ScenarioCache::new();
                let it = workloads::suite_iteration(ctx, &cache);
                suite_cache = Some(cache);
                it
            }
            Workload::SingleQuick => workloads::single_iteration(ctx),
            Workload::AuditQuick => workloads::audit_iteration(ctx, &audit_cache, &audit_specs),
        };
        tracer.set_enabled(false);
        println!(
            "[iteration] {} traced={traced} wall {:.3} s cpu {:.2} s (system {:.2} s)",
            records.len(),
            it.sw.wall,
            it.sw.cpu.total(),
            it.sw.cpu.system
        );
        if traced {
            let covered = tracer.top_level_secs_since(mark);
            let gap = it.sw.wall - covered;
            println!(
                "[trace] iteration {}: top-level spans cover {covered:.3} s of {:.3} s wall, gap {gap:.3} s",
                records.len(),
                it.sw.wall
            );
            unaccounted_pct.push(100.0 * gap / it.sw.wall.max(1e-9));
        }
        if let Some((first, _)) = records.first() {
            if it.checks.digest() != first.checks.digest() {
                checks.fail(format!(
                    "iteration {} digest {:016x} differs from the first iteration's {:016x}",
                    records.len(),
                    it.checks.digest(),
                    first.checks.digest()
                ));
            }
        }
        checks.absorb_counts(&it.checks);
        if records.is_empty() {
            peak_rss = peak_rss_mb();
        }
        records.push((it, traced));
        let walls: Vec<f64> = records.iter().map(|(r, _)| r.sw.wall).collect();
        let min_iterations = if args.trace { 2 } else { 1 };
        if records.len() >= min_iterations
            && started.elapsed().as_secs_f64() + median(&walls) > args.seconds
        {
            break;
        }
    }

    // Layer probes of the traced run.
    let mut probe_verdicts = Vec::new();
    let mut unlearn = (0.0, 0.0);
    if args.trace {
        tracer.set_enabled(true);
        probes::data_and_attack(ctx, checks);
        unlearn = probes::unlearn(ctx, checks);
        for (label, profile, kind) in probes::FAMILIES {
            probes::nn_family(tracer, label, profile, kind, ctx.spec_seed(0x9E7), checks);
        }
        if let Some(cache) = &suite_cache {
            probe_verdicts = workloads::suite_defense_probe(ctx, cache, checks);
        }
        tracer.set_enabled(false);
    }
    // The timing decorator must hand back every verdict it forwarded.
    for (d, timed) in ctx.panel.iter().enumerate() {
        let logged = timed.samples().iter().filter(|s| s.detected).count();
        let returned = records
            .iter()
            .flat_map(|(r, _)| &r.verdicts)
            .chain(&probe_verdicts)
            .filter(|t| t.defense == d && t.detected)
            .count();
        if logged != returned {
            checks.fail(format!(
                "{}: the decorator logged {logged} detections, audits returned {returned}",
                DEFENSE_KEYS[d]
            ));
        }
    }
    Run {
        setup_s,
        setups,
        records,
        unaccounted_pct,
        probe_verdicts,
        unlearn,
        peak_rss_mb: peak_rss,
    }
}

fn end_to_end_metrics(run: &Run, m: &mut Metrics) {
    let untraced: Vec<&Iteration> = run
        .records
        .iter()
        .filter(|(_, t)| !t)
        .map(|(r, _)| r)
        .collect();
    let walls: Vec<f64> = untraced.iter().map(|r| r.sw.wall).collect();
    let cpus: Vec<f64> = untraced.iter().map(|r| r.sw.cpu.total()).collect();
    m.set("wall_s", "s", median(&walls));
    m.set("setup_s", "s", run.setup_s);
    m.set("cpu_s", "s", median(&cpus));
    // audit-quick trains its cells in set-up; the others in the loop.
    let trained: Vec<&Iteration> = if run.setups.is_empty() {
        untraced.clone()
    } else {
        run.setups.iter().collect()
    };
    m.set(
        "cells_per_s",
        "1/s",
        throughput(trained.into_iter(), PhaseKind::Train),
    );
    m.set(
        "audits_per_s",
        "1/s",
        throughput(untraced.iter().copied(), PhaseKind::Audit),
    );
    m.set("peak_rss_mb", "MB", run.peak_rss_mb);
}

fn per_layer_metrics(run: &Run, ctx: &Ctx, checks: &Checks, m: &mut Metrics) {
    let tracer = ctx.tracer;
    let stats = tracer.stats_since(0);
    let ms = |name: &str| stats.get(name).map_or(0.0, |s| 1e3 * median(&s.durations));
    let traced: Vec<&Iteration> = run
        .records
        .iter()
        .filter(|(_, t)| *t)
        .map(|(r, _)| r)
        .collect();
    let untraced: Vec<&Iteration> = run
        .records
        .iter()
        .filter(|(_, t)| !t)
        .map(|(r, _)| r)
        .collect();
    let all = || run.records.iter().map(|(r, _)| r).chain(&run.setups);
    let n_traced = traced.len().max(1) as f64;
    let workers = parallel::worker_count();

    for fig in FIGURES.iter().filter(|f| **f != "train_all") {
        let secs = stats
            .get(&format!("eval.{fig}"))
            .map_or(0.0, |s| s.self_secs);
        m.set(format!("eval.{fig}_s"), "s", secs / n_traced);
    }
    for kind in PhaseKind::ALL {
        let per_iteration = if kind == PhaseKind::Train && !run.setups.is_empty() {
            phase_wall(&run.setups.iter().collect::<Vec<_>>(), kind)
        } else {
            phase_wall(&traced, kind)
        };
        m.set(format!("eval.{}_all_s", kind.label()), "s", per_iteration);
        m.set(
            format!("eval.{}_busy_ratio", kind.label()),
            "ratio",
            busy_ratio(all(), kind, workers),
        );
    }
    m.set(
        "eval.trios_per_s",
        "1/s",
        throughput(all(), PhaseKind::Trio),
    );
    m.set(
        "eval.fail_frac",
        "ratio",
        checks.failed as f64 / checks.attempted.max(1) as f64,
    );
    // The record that trained the workload's cells: audit-quick's set-up,
    // otherwise the first iteration (every iteration repeats it exactly).
    let first = &run.records[0].0;
    let counted = run.setups.first().unwrap_or(first);
    m.set("eval.ba_pct", "%", mean(&counted.quality.ba));
    m.set(
        "eval.conceal_gap_pct",
        "%",
        mean(&counted.quality.conceal_gap),
    );
    m.set(
        "eval.restore_gap_pct",
        "%",
        mean(&counted.quality.restore_gap),
    );
    m.set(
        "eval.cells_requested",
        "count",
        counted.cells_requested as f64,
    );
    m.set("eval.cells_trained", "count", counted.cells_trained as f64);
    m.set(
        "eval.cache_hit_ratio",
        "ratio",
        1.0 - counted.cells_trained as f64 / counted.cells_requested.max(1) as f64,
    );
    let wall = |rs: &[&Iteration]| median(&rs.iter().map(|r| r.sw.wall).collect::<Vec<_>>());
    m.set(
        "trace.overhead_pct",
        "%",
        100.0 * (wall(&traced) / wall(&untraced).max(1e-9) - 1.0),
    );
    m.set("trace.unaccounted_pct", "%", median(&run.unaccounted_pct));

    for (fam, _, _) in probes::FAMILIES {
        let mut serial_steps = vec![0.0; 0];
        for stage in probes::STEP_STAGES {
            let name = format!("nn.{fam}.{stage}");
            m.set(format!("{name}_ms"), "ms", ms(&name));
            if let Some(s) = stats.get(&name) {
                serial_steps.resize(s.durations.len(), 0.0);
                for (acc, d) in serial_steps.iter_mut().zip(&s.durations) {
                    *acc += d;
                }
            }
        }
        let serial = 1e3 * median(&serial_steps);
        let team = ms(&format!("nn.{fam}.step_team"));
        m.set(format!("nn.{fam}.step_serial_ms"), "ms", serial);
        m.set(format!("nn.{fam}.step_team_ms"), "ms", team);
        m.set(
            format!("nn.{fam}.team_speedup"),
            "ratio",
            if team > 0.0 { serial / team } else { 0.0 },
        );
        m.set(
            format!("nn.{fam}.infer_ms"),
            "ms",
            ms(&format!("nn.{fam}.infer")),
        );
    }
    let sys: Vec<f64> = run.records.iter().map(|(r, _)| r.sw.cpu.system).collect();
    m.set("tensor.sys_cpu_s", "s", median(&sys));
    m.set("datasets.generate_ms", "ms", ms("datasets.generate"));
    for op in ["craft", "inject", "measure"] {
        m.set(format!("core.{op}_ms"), "ms", ms(&format!("core.{op}")));
    }
    m.set(
        "unlearn.provider_train_ms",
        "ms",
        ms("unlearn.provider_train"),
    );
    m.set("unlearn.unlearn_ms", "ms", ms("unlearn.unlearn"));
    m.set("unlearn.samples_retrained", "count", run.unlearn.0);
    m.set("unlearn.cost_fraction", "ratio", run.unlearn.1);

    let tagged = if run.probe_verdicts.is_empty() {
        &first.verdicts
    } else {
        &run.probe_verdicts
    };
    for (d, key) in DEFENSE_KEYS.iter().enumerate() {
        let secs: Vec<f64> = ctx.panel[d].samples().iter().map(|s| s.secs).collect();
        let (tail_value, tail_pctile) = tail(&secs);
        m.set(format!("defense.{key}_ms"), "ms", 1e3 * median(&secs));
        m.set(format!("defense.{key}_tail_ms"), "ms", 1e3 * tail_value);
        m.set(format!("defense.{key}_tail_pctile"), "%", tail_pctile);
        m.set(format!("defense.{key}_n"), "count", secs.len() as f64);
        let (control, camouflaged) = fired(tagged, d);
        m.set(
            format!("defense.{key}.fired_control"),
            "count",
            control as f64,
        );
        m.set(
            format!("defense.{key}.fired_camouflaged"),
            "count",
            camouflaged as f64,
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("reveil-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new();
    let profile = args.workload.profile(args.small);
    let auditor_seed = reveil_tensor::rng::derive_seed(args.seed, 0xDEF);
    let strip = profile.strip_auditor(auditor_seed);
    let nc = profile.neural_cleanse_auditor(auditor_seed);
    let beatrix = profile.beatrix_auditor();
    let ctx = Ctx {
        profile,
        datasets: if args.small {
            vec![DatasetKind::Cifar10Like]
        } else {
            ALL_DATASETS.to_vec()
        },
        seed: args.seed,
        tracer: &tracer,
        panel: [
            TimedDefense::new(&strip),
            TimedDefense::new(&nc),
            TimedDefense::new(&beatrix),
        ],
    };
    let env = Env::read();
    if env.oversubscribed() {
        eprintln!(
            "[env] WARNING: worker count {} exceeds nproc {}",
            env.workers, env.nproc
        );
    }

    let mut checks = Checks::default();
    let run = run(&ctx, &args, &mut checks);
    let mut metrics = Metrics::default();
    end_to_end_metrics(&run, &mut metrics);
    per_layer_metrics(&run, &ctx, &checks, &mut metrics);

    let digest = run.records[0].0.checks.digest();
    let env_line = format!(
        "{{\"workload\":\"{}\",\"profile\":\"{}\",\"seed\":{},\"small\":{},\"trace\":{},\
         \"iterations\":{},\"workers\":{},\"reveil_threads\":\"{}\",\"nproc\":{},\
         \"oversubscribed\":{},\"git_rev\":\"{}\",\"digest\":\"{digest:016x}\"}}",
        args.workload.name(),
        profile.label(),
        args.seed,
        args.small,
        args.trace,
        run.records.len(),
        env.workers,
        env.reveil_threads,
        env.nproc,
        env.oversubscribed(),
        env.git_rev,
    );
    for (name, (unit, value)) in metrics.iter() {
        println!("[metric] {name} = {value} {unit}");
    }
    println!("[env] {env_line}");
    println!("[digest] {digest:016x}");

    let names = if args.trace {
        per_layer_names()
    } else {
        end_to_end_names()
    };
    let line = metrics.result_line(&names, &mut checks);
    if let Err(e) = write_results(&args, &env_line, &line, &tracer) {
        eprintln!("[results] could not write the result files: {e}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// Keeps the run's record inside the benchmark's directory of the
/// checkout: `results/<workload>-seed<n>-trace<t>.json`, plus the spans as
/// JSON lines for a traced run.
fn write_results(args: &Args, env_line: &str, line: &str, tracer: &Tracer) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        dir.join(format!("{stem}.json")),
        format!("{{\"env\":{env_line},\"result\":{line}}}\n"),
    )?;
    if args.trace {
        tracer.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}
