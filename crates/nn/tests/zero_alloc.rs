//! The zero-allocation training-step contract, enforced end to end.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! batch, one full training step (forward → loss → backward → optimizer
//! step) over a model using **every** layer type must perform zero heap
//! allocations, and so must the input-gradient pass of the defense audits
//! (Eval forward → `Network::backward_into` with `Backward::InputOnly`).
//! Every kernel runs on the calling thread, so the counts hold at any
//! `REVEIL_THREADS`.
//!
//! Alongside the strict allocator count, this file pins:
//! * bit-identity of the pooled-buffer path (`TrainStep`) against the
//!   allocate-per-call wrappers (`Network::forward` /
//!   `softmax_cross_entropy` / `Network::backward_to_input`) over a full
//!   fixed-seed training run, and
//! * capacity stability: a second epoch grows no buffer (mirroring the
//!   scratch-reuse tests in `crates/tensor`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use reveil_nn::layers::{
    BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, InvertedResidual, Linear, MaxPool2d, Relu,
    ResidualBlock,
};
use reveil_nn::loss::softmax_cross_entropy;
use reveil_nn::optim::{Adam, Optimizer, Sgd};
use reveil_nn::train::{TrainConfig, TrainStep, Trainer};
use reveil_nn::{Backward, Mode, Network, Sequential};
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

/// A compact network that routes a batch through every layer type in the
/// crate: conv, batch-norm, ReLU, max-pool, residual block (projected
/// shortcut), MobileNet inverted residual (ReLU6 + depthwise conv),
/// EfficientNet MBConv (SiLU + squeeze-excite, i.e. GAP + linears +
/// sigmoid inside), global average pooling, flatten and linear.
fn all_layers_net() -> Network {
    let mut r = rng::rng_from_seed(23);
    let backbone = Sequential::new()
        .push(Conv2d::new(3, 6, 3, 1, 1, &mut r).unwrap())
        .push(BatchNorm2d::new(6).unwrap())
        .push(Relu::new())
        .push(MaxPool2d::new(2).unwrap())
        .push(ResidualBlock::new(6, 8, 2, &mut r).unwrap())
        .push(InvertedResidual::mobilenet(8, 8, 1, 2, &mut r).unwrap())
        .push(InvertedResidual::mbconv(8, 8, 1, 2, &mut r).unwrap())
        .push(GlobalAvgPool::new());
    let head = Sequential::new()
        .push(Flatten::new())
        .push(Linear::new(8, 4, &mut r).unwrap());
    Network::new(backbone, head, (3, 16, 16), 4, "all_layers_probe")
}

/// Smoke-batch-sized input (batch 32) with round-robin labels.
fn smoke_batch() -> (Tensor, Vec<usize>) {
    let mut batch = Tensor::zeros(&[32, 3, 16, 16]);
    let mut r = rng::rng_from_seed(31);
    rng::fill_gaussian(&mut batch, 0.4, 0.25, &mut r);
    let labels = (0..32).map(|i| i % 4).collect();
    (batch, labels)
}

fn assert_zero_alloc_steps(opt: &mut dyn Optimizer, opt_name: &str) {
    let mut net = all_layers_net();
    let (batch, labels) = smoke_batch();
    let mut step = TrainStep::new();
    // Warm-up: buffers, optimizer state and GEMM pack scratch all reach
    // their steady-state capacity.
    for _ in 0..2 {
        step.run(&mut net, opt, &batch, &labels).expect("warm-up");
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..3 {
        step.run(&mut net, opt, &batch, &labels).expect("step");
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "{opt_name}: a warmed-up training step must perform zero heap \
         allocations, counted {allocs} across 3 steps"
    );
}

#[test]
fn warmed_up_training_step_performs_zero_heap_allocations() {
    let _serial = serial();
    assert_zero_alloc_steps(&mut Adam::new(5e-3).with_weight_decay(1e-4), "Adam");
    assert_zero_alloc_steps(&mut Sgd::new(5e-3), "SGD");
}

#[test]
fn warmed_up_input_gradient_pass_performs_zero_heap_allocations() {
    let _serial = serial();
    let mut net = all_layers_net();
    let (batch, _) = smoke_batch();
    let grad_logits = Tensor::from_fn(&[32, 4], |i| (i % 7) as f32 * 0.1 - 0.3);
    let mut logits = Tensor::default();
    let mut grad_input = Tensor::default();
    // Warm-up on this path alone, as an audit of a parked cell runs it.
    for _ in 0..2 {
        net.infer_into(&batch, &mut logits);
        net.backward_into(&grad_logits, Backward::InputOnly, &mut grad_input);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..3 {
        net.infer_into(&batch, &mut logits);
        net.backward_into(&grad_logits, Backward::InputOnly, &mut grad_input);
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "a warmed-up Eval forward + input-only backward pass must perform \
         zero heap allocations, counted {allocs} across 3 passes"
    );
}

#[test]
fn pooled_step_is_bit_identical_to_allocate_per_call_training() {
    let _serial = serial();
    // Deterministic toy set large enough for several batches per epoch.
    let mut images = Vec::new();
    let mut labels = Vec::new();
    let mut r = rng::rng_from_seed(77);
    for i in 0..48 {
        let mut img = Tensor::full(&[3, 16, 16], 0.1 * (i % 4) as f32 + 0.2);
        rng::fill_gaussian(&mut img, 0.0, 0.3, &mut r);
        images.push(img);
        labels.push(i % 4);
    }
    let cfg = TrainConfig::new(2, 16, 5e-3)
        .with_seed(13)
        .with_weight_decay(1e-4);

    // Pooled path: the Trainer drives TrainStep's reused buffers.
    let mut pooled_net = all_layers_net();
    let mut pooled_opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    Trainer::new(cfg.clone()).fit_with(&mut pooled_net, &mut pooled_opt, &images, &labels);

    // Allocate-per-call path: the same schedule hand-rolled through the
    // allocating wrappers (fresh logits/gradient tensors every batch).
    let mut alloc_net = all_layers_net();
    let mut alloc_opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    for epoch in 0..cfg.epochs {
        alloc_opt.set_lr(cfg.lr);
        let mut er = rng::rng_from_seed(rng::derive_seed(cfg.seed, 0xE90C_0000 | epoch as u64));
        let order = rng::permutation(images.len(), &mut er);
        for chunk in order.chunks(cfg.batch_size) {
            let samples: Vec<Tensor> = chunk.iter().map(|&i| images[i].clone()).collect();
            let batch = Tensor::stack(&samples).expect("stack");
            let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
            let logits = alloc_net.forward(&batch, Mode::Train);
            let (_, grad) = softmax_cross_entropy(&logits, &batch_labels).expect("loss");
            alloc_net.zero_grads();
            alloc_net.backward_to_input(&grad);
            alloc_opt.step(&mut alloc_net);
        }
    }

    assert_eq!(
        pooled_net.state_vec(),
        alloc_net.state_vec(),
        "pooled-buffer training must be bit-identical to the allocate-per-call path"
    );
}

#[test]
fn release_buffers_frees_everything_and_training_recovers() {
    let _serial = serial();
    let mut net = all_layers_net();
    let (batch, labels) = smoke_batch();
    let mut opt = Adam::new(5e-3).with_weight_decay(1e-4);
    let mut step = TrainStep::new();
    step.run(&mut net, &mut opt, &batch, &labels).expect("warm");
    assert!(net.buffer_capacity() > 0);

    // Reference: the state after two steps on an untouched network.
    let mut reference = all_layers_net();
    let mut ref_opt = Adam::new(5e-3).with_weight_decay(1e-4);
    let mut ref_step = TrainStep::new();
    ref_step
        .run(&mut reference, &mut ref_opt, &batch, &labels)
        .expect("ref warm");
    ref_step
        .run(&mut reference, &mut ref_opt, &batch, &labels)
        .expect("ref step");

    // Releasing drops every pooled buffer without touching parameters or
    // persistent state, and training picks up bit-identically after.
    net.release_buffers();
    assert_eq!(
        net.buffer_capacity(),
        0,
        "release_buffers must drop every pooled buffer"
    );
    step.run(&mut net, &mut opt, &batch, &labels)
        .expect("resume");
    assert_eq!(
        net.state_vec(),
        reference.state_vec(),
        "training must continue bit-identically after release_buffers"
    );
}

#[test]
fn second_epoch_triggers_no_buffer_growth() {
    let _serial = serial();
    let mut net = all_layers_net();
    let (batch, labels) = smoke_batch();
    let mut opt = Adam::new(5e-3).with_weight_decay(1e-4);
    let mut step = TrainStep::new();

    // "Epoch" = a few batches; after the first one every buffer is warm.
    for _ in 0..4 {
        step.run(&mut net, &mut opt, &batch, &labels).expect("step");
    }
    let warmed = net.buffer_capacity() + step.buffer_capacity();
    assert!(warmed > 0, "the pooled substrate must report its buffers");
    for _ in 0..4 {
        step.run(&mut net, &mut opt, &batch, &labels).expect("step");
    }
    assert_eq!(
        net.buffer_capacity() + step.buffer_capacity(),
        warmed,
        "a second epoch must not grow any pooled buffer"
    );
}
