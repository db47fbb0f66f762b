//! The zero-allocation audit contract, enforced end to end.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! audit, every subsequent STRIP / Neural Cleanse / Beatrix audit through
//! the pooled auditors must perform zero heap allocations. Every kernel of
//! an audit runs on the calling thread, so the count holds at any
//! `REVEIL_THREADS`.
//!
//! Alongside the strict allocator count, this file pins:
//! * bit-identity of the pooled scratch paths (`strip_with` /
//!   `neural_cleanse_with` / `beatrix_with`) against the allocate-per-call
//!   reference wrappers, on both cold and warmed scratch, and
//! * capacity stability: repeat audits grow no pooled buffer, and
//!   `release_scratch` drops everything without changing verdicts
//!   (mirroring `crates/nn/tests/zero_alloc.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use reveil_datasets::LabeledDataset;
use reveil_defense::{
    beatrix, beatrix_with, neural_cleanse, neural_cleanse_with, strip, strip_with, AuditInputs,
    BeatrixAuditor, BeatrixConfig, BeatrixScratch, CleanseScratch, Defense, NeuralCleanseAuditor,
    NeuralCleanseConfig, StripAuditor, StripConfig, StripScratch,
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

#[test]
fn pooled_audits_are_bit_identical_to_allocating_wrappers() {
    let _serial = serial();
    let (data, suspects, mut net) = fixture();
    let clean = &data.images()[..16];

    // STRIP: cold scratch, warmed scratch and the allocating wrapper must
    // agree bit for bit.
    let mut strip_scratch = StripScratch::new();
    let cold = strip_with(
        &mut net,
        clean,
        &suspects,
        &strip_config(),
        &mut strip_scratch,
    )
    .expect("cold pooled STRIP");
    let warm = strip_with(
        &mut net,
        clean,
        &suspects,
        &strip_config(),
        &mut strip_scratch,
    )
    .expect("warm pooled STRIP");
    let reference = strip(&mut net, clean, &suspects, &strip_config()).expect("reference STRIP");
    assert_eq!(cold, reference);
    assert_eq!(warm, reference);

    // Neural Cleanse: the pooled outcome must match the wrapper's report.
    let mut nc_scratch = CleanseScratch::new();
    let cold = neural_cleanse_with(&mut net, clean, &nc_config(), &mut nc_scratch)
        .expect("cold pooled NC");
    let warm = neural_cleanse_with(&mut net, clean, &nc_config(), &mut nc_scratch)
        .expect("warm pooled NC");
    let reference = neural_cleanse(&mut net, clean, &nc_config()).expect("reference NC");
    assert_eq!(cold, warm);
    assert_eq!(cold.anomaly_index, reference.anomaly_index);
    assert_eq!(cold.flagged_class, reference.flagged_class);
    assert_eq!(cold.detected, reference.detected);

    // Beatrix: full-report equality.
    let mut beatrix_scratch = BeatrixScratch::new();
    let cold = beatrix_with(
        &mut net,
        &data,
        &suspects,
        &beatrix_config(),
        &mut beatrix_scratch,
    )
    .expect("cold pooled Beatrix");
    let warm = beatrix_with(
        &mut net,
        &data,
        &suspects,
        &beatrix_config(),
        &mut beatrix_scratch,
    )
    .expect("warm pooled Beatrix");
    let reference =
        beatrix(&mut net, &data, &suspects, &beatrix_config()).expect("reference Beatrix");
    assert_eq!(cold, reference);
    assert_eq!(warm, reference);
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
