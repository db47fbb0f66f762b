//! Training-step benchmarks: one full forward → loss → backward →
//! optimizer step at Smoke scale, per model family.
//!
//! The `train_step` group drives the pooled-buffer substrate
//! ([`TrainStep`]); `train_step_alloc_per_call` drives the allocating
//! wrappers (the pre-pooling baseline shape) for comparison. Beyond
//! wall-clock time, the `train_step_allocs` group reports heap allocations
//! per warmed-up step (counted by a global counting allocator) — the pooled
//! path reports zero at any `REVEIL_THREADS`, since every kernel of the
//! step runs on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use reveil_nn::loss::softmax_cross_entropy;
use reveil_nn::optim::{Adam, Optimizer};
use reveil_nn::train::TrainStep;
use reveil_nn::{models, Mode, Network};
use reveil_tensor::{rng, Tensor};

/// Counts heap allocations (`alloc` + `realloc`) so the benches can report
/// allocations per training step alongside time.
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

/// Smoke-profile batch: 32 images of `c`×`h`×`w` with round-robin labels.
fn smoke_batch(c: usize, h: usize, w: usize, classes: usize) -> (Tensor, Vec<usize>) {
    let n = 32;
    let mut batch = Tensor::zeros(&[n, c, h, w]);
    let mut r = rng::rng_from_seed(11);
    rng::fill_gaussian(&mut batch, 0.5, 0.25, &mut r);
    let labels = (0..n).map(|i| i % classes).collect();
    (batch, labels)
}

/// The model families the training figures sweep, at Smoke width.
///
/// `tiny_cnn` matches the Smoke profile exactly (12×12 images, width 6);
/// the others keep the step bench honest about blocks the Smoke profile
/// skips (residual, depthwise, squeeze-excite).
fn families() -> Vec<(&'static str, Network, usize, usize, usize, usize)> {
    vec![
        (
            "tiny_cnn",
            models::tiny_cnn(3, 12, 12, 10, 6, 5),
            3,
            12,
            12,
            10,
        ),
        (
            "resnet",
            models::resnet_tiny(3, 16, 16, 10, 6, 5),
            3,
            16,
            16,
            10,
        ),
        (
            "effnet",
            models::effnet_tiny(3, 16, 16, 10, 6, 5),
            3,
            16,
            16,
            10,
        ),
    ]
}

/// One full training step through the pooled-buffer substrate.
fn pooled_step(
    net: &mut Network,
    step: &mut TrainStep,
    opt: &mut dyn Optimizer,
    batch: &Tensor,
    labels: &[usize],
) -> f32 {
    step.run(net, opt, batch, labels)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The same step through the allocate-per-call wrappers (fresh output
/// tensors every call) — the pre-pooling baseline shape.
fn alloc_step(net: &mut Network, opt: &mut dyn Optimizer, batch: &Tensor, labels: &[usize]) -> f32 {
    let logits = net.forward(batch, Mode::Train);
    let (loss, grad) = softmax_cross_entropy(&logits, labels).unwrap_or_else(|e| panic!("{e}"));
    net.zero_grads();
    net.backward_to_input(&grad);
    opt.step(net);
    loss
}

fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group.sample_size(20);
    for (label, mut net, ch, h, w, classes) in families() {
        let (batch, labels) = smoke_batch(ch, h, w, classes);
        let mut opt = Adam::new(5e-3).with_weight_decay(1e-4);
        let mut step = TrainStep::new();
        // Warm every reusable buffer before timing.
        for _ in 0..3 {
            pooled_step(&mut net, &mut step, &mut opt, &batch, &labels);
        }
        group.bench_function(label, |b| {
            b.iter(|| pooled_step(&mut net, &mut step, &mut opt, black_box(&batch), &labels))
        });
    }
    group.finish();
}

fn bench_train_step_alloc_per_call(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step_alloc_per_call");
    group.sample_size(20);
    for (label, mut net, ch, h, w, classes) in families() {
        let (batch, labels) = smoke_batch(ch, h, w, classes);
        let mut opt = Adam::new(5e-3).with_weight_decay(1e-4);
        for _ in 0..3 {
            alloc_step(&mut net, &mut opt, &batch, &labels);
        }
        group.bench_function(label, |b| {
            b.iter(|| alloc_step(&mut net, &mut opt, black_box(&batch), &labels))
        });
    }
    group.finish();
}

fn bench_step_allocations(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step_allocs");
    group.sample_size(10);
    for (label, mut net, ch, h, w, classes) in families() {
        let (batch, labels) = smoke_batch(ch, h, w, classes);
        let mut opt = Adam::new(5e-3).with_weight_decay(1e-4);
        let mut step = TrainStep::new();
        for _ in 0..3 {
            pooled_step(&mut net, &mut step, &mut opt, &batch, &labels);
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let rounds = 10u64;
        for _ in 0..rounds {
            pooled_step(&mut net, &mut step, &mut opt, &batch, &labels);
        }
        let per_step = (ALLOCATIONS.load(Ordering::Relaxed) - before) / rounds;
        eprintln!("train_step_allocs/{label}: {per_step} heap allocations per warmed-up step");
        // Keep a timing entry so `--test` smoke mode exercises this group.
        group.bench_function(label, |b| {
            b.iter(|| pooled_step(&mut net, &mut step, &mut opt, &batch, &labels))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_train_step,
    bench_train_step_alloc_per_call,
    bench_step_allocations
);
criterion_main!(benches);
