//! Kernel microbenches: GFLOP/s for the packed matmul variants and
//! lowering throughput for `im2col`.
//!
//! Throughput is declared as flops (2·m·k·n for a matmul) so the harness
//! reports Gelem/s == GFLOP/s directly.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use reveil_tensor::conv::{im2col, im2col_batch_into, ConvGeometry};
use reveil_tensor::{ops, Tensor};

fn filled(shape: &[usize]) -> Tensor {
    Tensor::from_fn(shape, |i| ((i * 31 % 17) as f32 - 8.0) * 0.1)
}

fn bench_matmul_variants(c: &mut Criterion) {
    // (m, k, n) shapes matching the workloads that dominate training:
    // conv-as-gemm (few rows, many columns), linear layers, and a square
    // case for reference.
    let shapes = [
        (16, 72, 4096),
        (64, 256, 128),
        (128, 128, 128),
        (256, 256, 256),
    ];
    let mut group = c.benchmark_group("matmul");
    group.sample_size(20);
    for (m, k, n) in shapes {
        let flops = 2 * m * k * n;
        group.throughput(Throughput::Elements(flops as u64));

        let a = filled(&[m, k]);
        let b = filled(&[k, n]);
        group.bench_function(format!("nn_{m}x{k}x{n}"), |bench| {
            bench.iter(|| ops::matmul(black_box(&a), black_box(&b)).expect("matmul"))
        });

        let at = filled(&[k, m]);
        group.bench_function(format!("tn_{m}x{k}x{n}"), |bench| {
            bench.iter(|| ops::matmul_tn(black_box(&at), black_box(&b)).expect("matmul_tn"))
        });

        let bt = filled(&[n, k]);
        group.bench_function(format!("nt_{m}x{k}x{n}"), |bench| {
            bench.iter(|| ops::matmul_nt(black_box(&a), black_box(&bt)).expect("matmul_nt"))
        });
    }
    group.finish();
}

fn bench_gemm_epilogue(c: &mut Criterion) {
    // Conv2d backward weight gradient at training scale: gy [oc, n*oh*ow]
    // against cols [fan_in, n*oh*ow] into dW [oc, fan_in]. The fused
    // accumulate epilogue (beta = 1) must beat — or at worst match — the
    // split matmul-into-scratch-then-axpy it replaced.
    let (oc, fan_in, cols_n) = (16usize, 72usize, 16 * 16 * 16);
    let gy = filled(&[oc, cols_n]);
    let cols = filled(&[fan_in, cols_n]);
    let flops = 2 * oc * cols_n * fan_in;

    let mut group = c.benchmark_group("gemm_epilogue");
    group.sample_size(20);
    group.throughput(Throughput::Elements(flops as u64));

    let mut grad = Tensor::zeros(&[oc, fan_in]);
    group.bench_function("conv_dw_fused_acc", |bench| {
        bench.iter(|| {
            ops::matmul_nt_acc_into(black_box(&gy), black_box(&cols), 1.0, &mut grad)
                .expect("acc gemm");
            // Keep the accumulator bounded across iterations.
            grad.scale(0.5);
        })
    });

    let mut product = Tensor::zeros(&[oc, fan_in]);
    let mut grad_split = Tensor::zeros(&[oc, fan_in]);
    group.bench_function("conv_dw_split_axpy", |bench| {
        bench.iter(|| {
            ops::matmul_nt_into(black_box(&gy), black_box(&cols), &mut product).expect("gemm");
            grad_split.axpy(1.0, &product).expect("axpy");
            grad_split.scale(0.5);
        })
    });

    // Square accumulate: the largest single-threaded GEMM in the group,
    // where the packed B panel is reused across every A panel.
    let a = filled(&[256, 256]);
    let b = filled(&[256, 256]);
    let mut out = Tensor::zeros(&[256, 256]);
    group.throughput(Throughput::Elements((2 * 256 * 256 * 256) as u64));
    group.bench_function("acc_256x256x256", |bench| {
        bench.iter(|| {
            ops::matmul_acc_into(black_box(&a), black_box(&b), 1.0, &mut out).expect("acc");
            out.scale(0.5);
        })
    });

    group.finish();
}

fn bench_im2col(c: &mut Criterion) {
    let mut group = c.benchmark_group("im2col");
    group.sample_size(20);

    // Single-sample lowering of a CIFAR-sized feature map.
    let geom = ConvGeometry::new(3, 3, 1, 1).expect("geometry");
    let x = filled(&[8, 32, 32]);
    let (oh, ow) = geom.output_size(32, 32).expect("output size");
    group.throughput(Throughput::Elements((8 * 9 * oh * ow) as u64));
    group.bench_function("single_8x32x32_k3", |bench| {
        bench.iter(|| im2col(black_box(&x), geom).expect("im2col"))
    });

    // Whole-mini-batch lowering into a reused scratch buffer (the conv
    // layers' hot path).
    let n = 16;
    let batch = filled(&[n, 8, 32, 32]);
    let mut cols = Tensor::zeros(&[0]);
    im2col_batch_into(&batch, geom, &mut cols).expect("warm up scratch");
    group.throughput(Throughput::Elements((n * 8 * 9 * oh * ow) as u64));
    group.bench_function("batch16_8x32x32_k3", |bench| {
        bench.iter(|| im2col_batch_into(black_box(&batch), geom, &mut cols).expect("im2col batch"))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul_variants, bench_gemm_epilogue, bench_im2col
}
criterion_main!(benches);
