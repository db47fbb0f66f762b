//! GEMM bit-identity with a 4-worker team configured.
//!
//! The file is named after the former shared packed-B parallel GEMM path.
//! Every kernel is now single-threaded, and these tests pin that the worker
//! count changes nothing: the integration test runs in its own process, sets
//! `REVEIL_THREADS=4` before the worker count is first resolved (the count is
//! cached per process), and checks that each row of a multi-row product is
//! **bit-identical** to the one-row product of its A row. Each output row
//! accumulates from its own A row in one fixed order, so stacking rows (the
//! samples of a batch) must never change a row's bits.

use reveil_tensor::ops::{self, Transpose};
use reveil_tensor::{parallel, Tensor};

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

/// A product spanning several MC row blocks and ragged NR/KC tails.
const M: usize = 256;
const K: usize = 101;
const N: usize = 129;

fn a_matrix() -> Tensor {
    Tensor::from_fn(&[M, K], |i| ((i * 37 % 11) as f32 - 5.0) * 0.25)
}

fn b_matrix() -> Tensor {
    Tensor::from_fn(&[K, N], |i| ((i * 53 % 7) as f32 - 3.0) * 0.25)
}

/// Row `i` of `a` as a `[1, k]` matrix.
fn row(a: &Tensor, i: usize, k: usize) -> Tensor {
    Tensor::from_vec(vec![1, k], a.data()[i * k..(i + 1) * k].to_vec()).unwrap()
}

#[test]
fn shared_pack_matches_serial_pack_bit_for_bit() {
    force_four_workers();
    let a = a_matrix();
    let b = b_matrix();
    let full = ops::matmul(&a, &b).unwrap();
    // Row i of the full product must match the 1-row product exactly —
    // not approximately.
    for i in 0..M {
        let single = ops::matmul(&row(&a, i, K), &b).unwrap();
        assert_eq!(
            &full.data()[i * N..(i + 1) * N],
            single.data(),
            "row {i}: multi-row product diverged from the single-row product"
        );
    }
}

#[test]
fn shared_pack_is_deterministic_across_runs() {
    force_four_workers();
    let a = a_matrix();
    let b = b_matrix();
    let first = ops::matmul(&a, &b).unwrap();
    for _ in 0..3 {
        assert_eq!(ops::matmul(&a, &b).unwrap(), first);
    }
}

#[test]
fn transpose_flavours_agree_under_shared_pack() {
    force_four_workers();
    let a = a_matrix();
    let b = b_matrix();
    let expected = ops::matmul(&a, &b).unwrap();
    let at = ops::transpose(&a).unwrap();
    let mut out = Tensor::full(&[M, N], f32::NAN);
    ops::matmul_into(&at, &b, Transpose::A, 0.0, &mut out).unwrap();
    assert_eq!(out, expected);
    let bt = ops::transpose(&b).unwrap();
    let mut out = Tensor::full(&[M, N], f32::NAN);
    ops::matmul_into(&a, &bt, Transpose::B, 0.0, &mut out).unwrap();
    assert_eq!(out, expected);
}

#[test]
fn accumulate_epilogue_is_exact_on_the_parallel_path() {
    force_four_workers();
    let a = a_matrix();
    let b = b_matrix();
    let product = ops::matmul(&a, &b).unwrap();

    // beta = 1 twice over a zeroed buffer: every element is v + v, which is
    // exact in floating point, so the result must be bitwise 2·product.
    let mut out = Tensor::zeros(&[M, N]);
    ops::matmul_into(&a, &b, Transpose::Neither, 1.0, &mut out).unwrap();
    assert_eq!(out, product);
    ops::matmul_into(&a, &b, Transpose::Neither, 1.0, &mut out).unwrap();
    for (twice, once) in out.data().iter().zip(product.data()) {
        assert_eq!(*twice, 2.0 * once);
    }

    // beta = 0 must fully overwrite stale NaN in every row block.
    let mut stale = Tensor::full(&[M, N], f32::NAN);
    ops::matmul_into(&a, &b, Transpose::Neither, 0.0, &mut stale).unwrap();
    assert_eq!(stale, product);
}

#[test]
fn odd_band_split_covers_every_row() {
    force_four_workers();
    // 67 rows: eight full MR = 8 row panels plus a 3-row tail — the awkward
    // case for row-panel bookkeeping.
    let m = 67;
    let k = 64;
    let n = 70;
    let a = Tensor::from_fn(&[m, k], |i| ((i * 23 % 17) as f32 - 8.0) * 0.1);
    let b = Tensor::from_fn(&[k, n], |i| ((i * 31 % 19) as f32 - 9.0) * 0.1);
    let full = ops::matmul(&a, &b).unwrap();
    for i in 0..m {
        let single = ops::matmul(&row(&a, i, k), &b).unwrap();
        assert_eq!(&full.data()[i * n..(i + 1) * n], single.data(), "row {i}");
    }
}
