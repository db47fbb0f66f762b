//! Parallel sweep executor under forced multi-threading.
//!
//! This integration test runs in its own process so it can pin
//! `REVEIL_THREADS=4` before the worker count is first resolved (the count
//! is cached per process). It bit-compares a fig-style multi-cell sweep
//! run through [`ScenarioCache::train_all`] against direct serial
//! training, checks the cache trains each distinct cell (and each trio)
//! exactly once, checks that two threads sweeping one cache at once get
//! the same bits, pins SISA shards fanned across the team against shards
//! trained inline, and pins the empty-suspect-set error contract of the
//! defense panel.

use std::sync::Arc;

use reveil_datasets::DatasetKind;
use reveil_defense::DefenseError;
use reveil_eval::{lock_scenario, EvalError, Profile, ScenarioCache, ScenarioSpec, UnlearnMethod};
use reveil_tensor::parallel;
use reveil_triggers::TriggerKind;

/// Pins the worker count to 4 for this process. Safe to call from every
/// test (the first call wins; all callers pass the same value). The
/// `Once` guarantees a single `set_var`, serialized before any test body
/// (and therefore before any `getenv`) proceeds — tests run on parallel
/// harness threads, and a concurrent getenv/setenv pair is a data race.
fn force_four_workers() {
    static PIN: std::sync::Once = std::sync::Once::new();
    PIN.call_once(|| std::env::set_var("REVEIL_THREADS", "4"));
    assert_eq!(
        parallel::worker_count(),
        4,
        "REVEIL_THREADS must be set before first use"
    );
}

/// A fig-style sweep: one dataset/trigger, three camouflage ratios.
fn sweep_specs() -> Vec<ScenarioSpec> {
    let base = ScenarioSpec::new(
        Profile::Smoke,
        DatasetKind::Cifar10Like,
        TriggerKind::BadNets,
    )
    .with_sigma(1e-3)
    .with_seed(21);
    vec![base.with_cr(0.0), base.with_cr(2.5), base.with_cr(5.0)]
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial_and_trains_each_cell_once() {
    force_four_workers();
    let specs = sweep_specs();

    // Request the grid with a duplicate appended: the executor must
    // dedupe it onto the same shared artifact.
    let mut requests = specs.clone();
    requests.push(specs[0]);
    let cache = ScenarioCache::new();
    let cells = cache.train_all(&requests).expect("parallel sweep");
    assert_eq!(
        cache.trainings(),
        specs.len(),
        "each distinct cell must train exactly once"
    );
    assert_eq!(cache.len(), specs.len());
    assert!(
        Arc::ptr_eq(&cells[0], &cells[3]),
        "duplicate specs must resolve to the same shared cell"
    );

    // Serial reference: the same cells trained directly, one at a time,
    // without the executor. Results and weights must match bit for bit.
    for (spec, cell) in specs.iter().zip(&cells) {
        let mut serial = spec.train().expect("serial cell");
        let mut cell = lock_scenario(cell);
        assert_eq!(
            serial.result, cell.result,
            "cr={}: parallel sweep diverged from serial training",
            spec.cr
        );
        assert_eq!(
            serial.network.state_vec(),
            cell.network.state_vec(),
            "cr={}: trained weights diverged from serial training",
            spec.cr
        );
    }

    // A re-request of the whole grid is pure cache hits.
    cache.train_all(&specs).expect("cached sweep");
    assert_eq!(cache.trainings(), specs.len());
}

#[test]
fn concurrent_sweeps_of_one_cache_return_the_same_bits() {
    force_four_workers();
    let specs = sweep_specs();
    let cache = ScenarioCache::new();

    // Two callers sweep the same missing cells at once. Nothing marks a
    // cell as in flight, so either may train any of them, but both get
    // back the bits of a serial training.
    let sweeps: Vec<_> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| cache.train_all(&specs)))
            .collect();
        callers
            .into_iter()
            .map(|caller| caller.join().expect("sweep thread").expect("sweep"))
            .collect()
    });
    for (i, spec) in specs.iter().enumerate() {
        let mut serial = spec.train().expect("serial cell");
        for cells in &sweeps {
            let mut cell = lock_scenario(&cells[i]);
            assert_eq!(serial.result, cell.result, "cr={}", spec.cr);
            assert_eq!(
                serial.network.state_vec(),
                cell.network.state_vec(),
                "cr={}",
                spec.cr
            );
        }
    }
    assert_eq!(cache.len(), specs.len());
    assert!(
        (specs.len()..=2 * specs.len()).contains(&cache.trainings()),
        "{} trainings",
        cache.trainings()
    );

    // A third sweep finds every cell cached.
    let trained = cache.trainings();
    cache.train_all(&specs).expect("cached sweep");
    assert_eq!(cache.trainings(), trained);
}

#[test]
fn trio_executor_caches_and_matches_direct_runs() {
    force_four_workers();
    let spec = ScenarioSpec::new(
        Profile::Smoke,
        DatasetKind::Cifar10Like,
        TriggerKind::BadNets,
    )
    .with_seed(19)
    .with_unlearner(UnlearnMethod::Sisa);

    let cache = ScenarioCache::new();
    let trios = cache.trio_all(&[spec, spec]).expect("trio sweep");
    assert_eq!(
        cache.trio_trainings(),
        1,
        "a duplicate trio spec must run the lifecycle once"
    );
    assert_eq!(trios[0], trios[1]);

    // Bit-identical to a direct (uncached, serial-path) run.
    let direct = spec.restoration_trio().expect("direct trio");
    assert_eq!(trios[0], direct);

    // A later single request hits the cache.
    assert_eq!(cache.trio(&spec).expect("cached trio"), direct);
    assert_eq!(cache.trio_trainings(), 1);

    // The same trio spelled without `with_unlearner` (SISA is the default
    // method) must share the cache key — not retrain three models.
    let default_axes = ScenarioSpec::new(
        Profile::Smoke,
        DatasetKind::Cifar10Like,
        TriggerKind::BadNets,
    )
    .with_seed(19);
    assert_eq!(cache.trio(&default_axes).expect("same trio"), direct);
    assert_eq!(
        cache.trio_trainings(),
        1,
        "the default-method spelling must share the trio's cache key"
    );
}

#[test]
fn sisa_shard_fan_out_is_bit_identical_to_inline_shards() {
    force_four_workers();
    let spec = ScenarioSpec::new(
        Profile::Smoke,
        DatasetKind::Cifar10Like,
        TriggerKind::BadNets,
    )
    .with_seed(23)
    .with_unlearner(UnlearnMethod::Sisa);

    // At top level every SisaEnsemble fans its shards across the team;
    // inside `serialized` (where a sweep worker runs) they train inline.
    let fanned = spec.restoration_trio().expect("fanned-out trio");
    let inline = parallel::serialized(|| spec.restoration_trio()).expect("inline trio");
    assert_eq!(
        fanned, inline,
        "trio (incl. UnlearnReport) depends on shard fan-out"
    );

    let provider_run = || {
        let mut provider = spec.train_provider().expect("provider");
        let trained = provider.measure();
        let report = provider.restore_backdoor().expect("unlearning request");
        (trained, report, provider.measure())
    };
    let fanned = provider_run();
    let inline = parallel::serialized(provider_run);
    assert_eq!(
        fanned, inline,
        "provider training or unlearning depends on shard fan-out"
    );
}

#[test]
fn audit_executor_is_bit_identical_to_serial_audits() {
    force_four_workers();
    let profile = Profile::Smoke;
    let specs = sweep_specs();
    let budget = profile.defense_sample_count();
    let strip = profile.strip_auditor(21);

    // Fan the audits out (with a duplicate appended: it resolves to the
    // same cell and re-audits it, so four verdicts come back).
    let mut requests = specs.clone();
    requests.push(specs[0]);
    let cache = ScenarioCache::new();
    let verdicts = cache
        .audit_all(&requests, &strip, budget)
        .expect("parallel audits");
    assert_eq!(verdicts.len(), requests.len());
    assert_eq!(
        cache.trainings(),
        specs.len(),
        "audit_all must pre-warm each distinct cell exactly once"
    );
    assert_eq!(
        verdicts[0], verdicts[3],
        "duplicate specs must produce the same verdict"
    );

    // Serial reference: the same cells audited one at a time.
    for (spec, verdict) in specs.iter().zip(&verdicts) {
        let serial = lock_scenario(&cache.trained(spec).expect("cached cell"))
            .audit(&strip, budget)
            .expect("serial audit");
        assert_eq!(
            serial, *verdict,
            "cr={}: parallel audit diverged from serial",
            spec.cr
        );
    }
}

#[test]
fn audit_executor_reports_first_error_in_spec_order() {
    force_four_workers();
    let profile = Profile::Smoke;
    let cache = ScenarioCache::new();
    // Budget 0 starves STRIP on every cell; the error must be the first
    // spec's, deterministically, regardless of worker completion order.
    let err = cache
        .audit_all(&sweep_specs(), &profile.strip_auditor(21), 0)
        .expect_err("zero-budget audits must fail");
    assert!(
        matches!(err, EvalError::Defense(DefenseError::EmptyInput { .. })),
        "expected an EmptyInput defense error, got {err:?}"
    );
}

#[test]
fn zero_budget_audits_error_for_every_defense_instead_of_panicking() {
    force_four_workers();
    let profile = Profile::Smoke;
    let cache = ScenarioCache::new();
    let cell = cache.trained(&sweep_specs()[0]).expect("audit cell");
    let mut cell = lock_scenario(&cell);

    // Budget 0 starves every detector: STRIP and Beatrix see an empty
    // suspect set, STRIP and Neural Cleanse an empty clean calibration
    // set. Each must reject with a structured error — the old paths
    // panicked or NaN-poisoned the verdict.
    let audits = [
        ("STRIP", cell.audit(&profile.strip_auditor(1), 0)),
        (
            "Neural Cleanse",
            cell.audit(&profile.neural_cleanse_auditor(1), 0),
        ),
        ("Beatrix", cell.audit(&profile.beatrix_auditor(), 0)),
    ];
    for (name, audit) in audits {
        assert!(
            matches!(
                audit,
                Err(EvalError::Defense(DefenseError::EmptyInput { .. }))
            ),
            "{name}: expected an EmptyInput defense error, got {audit:?}"
        );
    }
}
