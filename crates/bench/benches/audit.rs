//! Audit bench: the pooled defense hot path for all three detectors.
//!
//! Before the Criterion timings run, a counting global allocator reports
//! allocations/audit for each defense — once through the allocate-per-call
//! reference wrapper and once through a warmed pooled auditor — and
//! asserts the warmed number is exactly zero, so `--bench audit -- --test`
//! doubles as a zero-allocation smoke gate. The timed groups then measure
//! steady-state audit latency through the `Defense` trait.

use criterion::{criterion_group, criterion_main, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use reveil_bench::{bench_cell, defense_inputs, BENCH_PROFILE};
use reveil_defense::{beatrix, neural_cleanse, strip, AuditInputs, Defense};

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

/// Counts the allocations one call of `f` performs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

fn bench_audit(c: &mut Criterion) {
    let mut cell = bench_cell(5.0, 42);
    let count = BENCH_PROFILE.defense_sample_count();
    let (clean, suspects) = defense_inputs(&cell, count);
    let inputs = AuditInputs::new(&cell.pair.test, &suspects, count);

    let strip_auditor = BENCH_PROFILE.strip_auditor(1);
    let nc_auditor = BENCH_PROFILE.neural_cleanse_auditor(1);
    let beatrix_auditor = BENCH_PROFILE.beatrix_auditor();

    let strip_cfg = BENCH_PROFILE.strip_config(1);
    let nc_cfg = BENCH_PROFILE.neural_cleanse_config(1);
    let beatrix_cfg = BENCH_PROFILE.beatrix_config();

    // Allocations/audit report: reference wrapper vs warmed pooled auditor.
    let net = &mut cell.network;
    let wrapper_counts = [
        (
            "STRIP",
            allocations_during(|| {
                black_box(strip(net, &clean, &suspects, &strip_cfg)).ok();
            }),
        ),
        (
            "Neural Cleanse",
            allocations_during(|| {
                black_box(neural_cleanse(net, &clean, &nc_cfg)).ok();
            }),
        ),
        (
            "Beatrix",
            allocations_during(|| {
                black_box(beatrix(net, &cell.pair.test, &suspects, &beatrix_cfg)).ok();
            }),
        ),
    ];
    let panel: [(&str, &dyn Defense); 3] = [
        ("STRIP", &strip_auditor),
        ("Neural Cleanse", &nc_auditor),
        ("Beatrix", &beatrix_auditor),
    ];
    for ((name, auditor), (_, wrapper)) in panel.into_iter().zip(wrapper_counts) {
        for _ in 0..2 {
            auditor
                .audit(net, &inputs)
                .unwrap_or_else(|e| panic!("{name} warm-up audit failed: {e}"));
        }
        let pooled = allocations_during(|| {
            auditor
                .audit(net, &inputs)
                .map(black_box)
                .unwrap_or_else(|e| panic!("{name} audit failed: {e}"));
        });
        eprintln!("allocations/audit — {name}: wrapper {wrapper}, warmed pooled {pooled}");
        assert_eq!(
            pooled, 0,
            "{name}: a warmed-up pooled audit must perform zero heap allocations"
        );
    }

    // Steady-state latency of the pooled hot path, per defense.
    c.bench_function("audit_strip_pooled", |bench| {
        bench.iter(|| black_box(strip_auditor.audit(net, &inputs)))
    });
    c.bench_function("audit_neural_cleanse_pooled", |bench| {
        bench.iter(|| black_box(nc_auditor.audit(net, &inputs)))
    });
    c.bench_function("audit_beatrix_pooled", |bench| {
        bench.iter(|| black_box(beatrix_auditor.audit(net, &inputs)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_audit
}
criterion_main!(benches);
