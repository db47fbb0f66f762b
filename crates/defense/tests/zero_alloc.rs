//! The zero-allocation audit contract, enforced end to end.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! audit, every subsequent STRIP / Neural Cleanse / Beatrix audit through
//! the pooled auditors must perform zero heap allocations. Every kernel of
//! an audit runs on the calling thread, so the count holds at any
//! `REVEIL_THREADS`.
//!
//! Alongside the strict allocator count, this file pins:
//! * bit-identity of a fresh auditor's full report against one from an
//!   auditor whose scratch earlier audits warmed, and agreement of each
//!   verdict with its report, and
//! * capacity stability: repeat audits grow no pooled buffer, and
//!   `release_scratch` drops everything without changing verdicts
//!   (mirroring `crates/nn/tests/zero_alloc.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use reveil_datasets::LabeledDataset;
use reveil_defense::{
    AuditInputs, BeatrixAuditor, BeatrixConfig, Defense, NeuralCleanseAuditor, NeuralCleanseConfig,
    StripAuditor, StripConfig,
};
use reveil_nn::models;
use reveil_nn::train::{TrainConfig, Trainer};
use reveil_nn::Network;
use reveil_tensor::{rng, Tensor};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The allocation counter is process-global, so the tests in this binary
/// must not run concurrently (libtest defaults to one thread per core):
/// every test holds this lock for its whole body, keeping sibling
/// allocations out of the measured window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn toy_dataset(n: usize, seed: u64) -> LabeledDataset {
    let mut r = rng::rng_from_seed(seed);
    let mut ds = LabeledDataset::new("toy", 2);
    for i in 0..n {
        let class = i % 2;
        let level = 0.2 + 0.6 * class as f32;
        let mut img = Tensor::full(&[1, 8, 8], level);
        rng::fill_gaussian(&mut img, level, 0.05, &mut r);
        img.clamp_inplace(0.0, 1.0);
        ds.push(img, class).unwrap();
    }
    ds
}

fn stamp(img: &Tensor) -> Tensor {
    let mut out = img.clone();
    for (y, x, v) in [(0, 0, 1.0), (0, 1, 0.0), (1, 0, 0.0), (1, 1, 1.0)] {
        out.set(&[0, y, x], v);
    }
    out
}

/// A trained suspect model plus the audit evidence every detector reads.
fn fixture() -> (LabeledDataset, Vec<Tensor>, Network) {
    let data = toy_dataset(40, 1);
    let mut net = models::tiny_cnn(1, 8, 8, 2, 8, 3);
    Trainer::new(TrainConfig::new(6, 16, 5e-3).with_seed(4)).fit(
        &mut net,
        data.images(),
        data.labels(),
    );
    let suspects: Vec<Tensor> = data.images().iter().take(10).map(stamp).collect();
    (data, suspects, net)
}

fn strip_config() -> StripConfig {
    StripConfig {
        num_overlays: 6,
        seed: 9,
        ..StripConfig::default()
    }
}

fn nc_config() -> NeuralCleanseConfig {
    NeuralCleanseConfig {
        steps: 8,
        sample_count: 6,
        seed: 9,
        ..NeuralCleanseConfig::default()
    }
}

fn beatrix_config() -> BeatrixConfig {
    BeatrixConfig {
        orders: vec![1, 2],
        samples_per_class: 10,
    }
}

#[test]
fn warmed_up_audits_perform_zero_heap_allocations() {
    let _serial = serial();
    let (data, suspects, mut net) = fixture();
    let inputs = AuditInputs::new(&data, &suspects, 16);
    let strip_auditor = StripAuditor::new(strip_config());
    let nc_auditor = NeuralCleanseAuditor::new(nc_config());
    let beatrix_auditor = BeatrixAuditor::new(beatrix_config());
    let panel: [(&str, &dyn Defense); 3] = [
        ("STRIP", &strip_auditor),
        ("Neural Cleanse", &nc_auditor),
        ("Beatrix", &beatrix_auditor),
    ];
    for (name, auditor) in panel {
        // Warm-up: the auditor's scratch pool, the network's forward /
        // backward buffers and the GEMM pack scratch all reach their
        // steady-state capacity.
        for _ in 0..2 {
            auditor.audit(&mut net, &inputs).expect("warm-up audit");
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..3 {
            auditor.audit(&mut net, &inputs).expect("audit");
        }
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocs, 0,
            "{name}: a warmed-up audit must perform zero heap \
             allocations, counted {allocs} across 3 audits"
        );
    }
}

/// Checks that a fresh auditor and one warmed by two audits report
/// identically, and that the warmed auditor's verdict carries its report's
/// score and judgement.
fn check_report<A: Defense, R: PartialEq + Debug>(
    make: impl Fn() -> A,
    report: impl Fn(&A, &mut Network) -> R,
    score_and_detected: impl Fn(&R) -> (f32, bool),
    net: &mut Network,
    inputs: &AuditInputs<'_>,
) {
    let cold = report(&make(), net);
    let warmed = make();
    warmed.audit(net, inputs).expect("warm-up audit");
    let verdict = warmed.audit(net, inputs).expect("audit");
    let warm = report(&warmed, net);
    let name = warmed.name();
    assert_eq!(cold, warm, "{name}: warmed scratch changed the report");
    let (score, detected) = score_and_detected(&warm);
    assert_eq!(verdict.score.to_bits(), score.to_bits(), "{name}: score");
    assert_eq!(verdict.detected, detected, "{name}: detected");
}

#[test]
fn fresh_and_warmed_auditors_report_identically() {
    let _serial = serial();
    let (data, suspects, mut net) = fixture();
    let inputs = AuditInputs::new(&data, &suspects, 16);
    check_report(
        || StripAuditor::new(strip_config()),
        |a, net| a.report(net, &inputs).expect("STRIP report"),
        |r| (r.decision_value, r.detected),
        &mut net,
        &inputs,
    );
    check_report(
        || NeuralCleanseAuditor::new(nc_config()),
        |a, net| a.report(net, &inputs).expect("NC report"),
        |r| (r.anomaly_index, r.detected),
        &mut net,
        &inputs,
    );
    check_report(
        || BeatrixAuditor::new(beatrix_config()),
        |a, net| a.report(net, &inputs).expect("Beatrix report"),
        |r| (r.anomaly_index, r.detected),
        &mut net,
        &inputs,
    );
}

#[test]
fn repeat_audits_grow_no_buffer_and_release_recovers() {
    let _serial = serial();
    let (data, suspects, mut net) = fixture();
    let inputs = AuditInputs::new(&data, &suspects, 16);
    let strip_auditor = StripAuditor::new(strip_config());
    let nc_auditor = NeuralCleanseAuditor::new(nc_config());
    let beatrix_auditor = BeatrixAuditor::new(beatrix_config());
    let panel: [(&str, &dyn Defense); 3] = [
        ("STRIP", &strip_auditor),
        ("Neural Cleanse", &nc_auditor),
        ("Beatrix", &beatrix_auditor),
    ];
    for (name, auditor) in panel {
        let first = auditor.audit(&mut net, &inputs).expect("warm-up audit");
        let warmed = auditor.scratch_capacity() + net.buffer_capacity();
        assert!(
            auditor.scratch_capacity() > 0,
            "{name}: one audit must warm the scratch pool"
        );
        for _ in 0..2 {
            auditor.audit(&mut net, &inputs).expect("repeat audit");
        }
        assert_eq!(
            auditor.scratch_capacity() + net.buffer_capacity(),
            warmed,
            "{name}: repeat audits must not grow any pooled buffer"
        );
        // Releasing drops the pool entirely, and the next audit rebuilds
        // it with an identical verdict.
        auditor.release_scratch();
        assert_eq!(
            auditor.scratch_capacity(),
            0,
            "{name}: release_scratch must drop every pooled buffer"
        );
        let after = auditor.audit(&mut net, &inputs).expect("post-release");
        assert_eq!(
            first, after,
            "{name}: verdicts must be identical after release_scratch"
        );
    }
}
