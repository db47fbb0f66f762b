//! Matrix and batch operations used by the neural-network layers.
//!
//! Backpropagation through a linear map `Y = X·Wᵀ` needs products against
//! both transposes, so the one GEMM entry point, [`matmul_into`], takes a
//! [`Transpose`] naming the operand it reads transposed in place instead of
//! materialising a transposed copy. It writes into a caller-provided
//! tensor, so hot loops reuse allocations; [`matmul`] is its allocating
//! `A·B` form.
//!
//! # Kernel design
//!
//! Every flavour lowers to one blocked, packed GEMM: operand panels are
//! repacked into contiguous, cache-sized scratch buffers (`MR`-row strips of
//! A, `NR`-column strips of B, each stored k-major), the loop nest tiles
//! over `(MC, KC, NC)` blocks, and the innermost register tile is a straight
//! fused multiply–add over fixed-size arrays that the compiler unrolls and
//! vectorizes. Packing normalises every transpose flavour to the same inner
//! loop, so the three flavours produce bit-identical results to each other.
//!
//! The kernel is single-threaded: it runs on its caller's thread, whose
//! pack buffers it reuses. Parallelism lives above it, at whole cells,
//! audits and SISA shards (see [`crate::parallel`]). Every output row
//! accumulates from its own A row in one fixed order, so a row's bits do
//! not depend on the rows stacked beside it.
//!
//! [`matmul_into`] fuses an accumulate epilogue (`C = A·B + beta·C`) into
//! the same kernel, so gradient paths that would otherwise run a matmul
//! followed by an `axpy` touch `C` only once.

use crate::error::TensorError;
use crate::math;
use crate::tensor::Tensor;

fn expect_rank2(op: &'static str, t: &Tensor) -> Result<(usize, usize), TensorError> {
    match *t.shape() {
        [r, c] => Ok((r, c)),
        _ => Err(TensorError::ShapeMismatch {
            op,
            expected: vec![0, 0],
            got: t.shape().to_vec(),
        }),
    }
}

/// [`expect_rank2`] for the row-wise ops, which also need a column.
fn expect_rows(op: &'static str, t: &Tensor) -> Result<(usize, usize), TensorError> {
    let (m, n) = expect_rank2(op, t)?;
    if n == 0 {
        return Err(TensorError::InvalidArgument {
            op,
            message: format!("rows need at least one column, got shape {:?}", t.shape()),
        });
    }
    Ok((m, n))
}

/// Rows per register tile: the micro-kernel keeps an `MR x NR` accumulator
/// block live across the whole k-loop.
const MR: usize = 8;
/// Columns per register tile (one or two SIMD vectors wide once the
/// compiler vectorizes the inner loop).
const NR: usize = 8;
/// k-extent of one packed panel pair; `KC * (MR + NR) * 4` bytes of packed
/// data stay hot in L1/L2 while a panel is consumed.
const KC: usize = 256;
/// Column extent of one packed B panel (`KC * NC * 4` = 512 KiB, sized for
/// the L2 cache).
const NC: usize = 512;
/// Row extent of one packed A panel (`MC * KC * 4` = 64 KiB).
const MC: usize = 64;

/// Copies the first `width` values of `src` into the `W`-wide slot `dst`.
/// A full slot is one copy of compile-time length, which compiles to a
/// few vector moves instead of a `memcpy` call.
#[inline]
fn copy_slot<const W: usize>(dst: &mut [f32], src: &[f32], width: usize) {
    if width == W {
        dst[..W].copy_from_slice(&src[..W]);
    } else {
        dst[..width].copy_from_slice(&src[..width]);
    }
}

/// Packs `A[i0..i0+mb, p0..p0+kb]` into MR-row strips: strip `s` holds rows
/// `i0 + s*MR ..`, stored p-major so the micro-kernel reads `MR` values per
/// k-step from one contiguous slot. A short last strip is zeroed first, so
/// its rows beyond `mb` pad with zeros; full strips are only written.
///
/// Element `(i, p)` sits at `p * m + i` for [`Transpose::A`] (`a: [k, m]`,
/// read as `Aᵀ` in place) and at `i * k + p` otherwise (`a: [m, k]`).
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &[f32],
    transpose: Transpose,
    k: usize,
    m: usize,
    i0: usize,
    mb: usize,
    p0: usize,
    kb: usize,
    apack: &mut [f32],
) {
    let strips = mb.div_ceil(MR);
    debug_assert!(apack.len() >= strips * kb * MR);
    for (s, strip) in apack.chunks_exact_mut(kb * MR).take(strips).enumerate() {
        let rows = MR.min(mb - s * MR);
        if rows < MR {
            strip.fill(0.0);
        }
        match transpose {
            Transpose::Neither | Transpose::B => {
                for r in 0..rows {
                    let src = &a[(i0 + s * MR + r) * k + p0..][..kb];
                    for (p, &v) in src.iter().enumerate() {
                        strip[p * MR + r] = v;
                    }
                }
            }
            Transpose::A => {
                for (p, slot) in strip.chunks_exact_mut(MR).enumerate() {
                    copy_slot::<MR>(slot, &a[(p0 + p) * m + i0 + s * MR..], rows);
                }
            }
        }
    }
}

/// Packs `B[p0..p0+kb, j0..j0+nb]` into NR-column strips stored
/// back-to-back: strip `t` holds columns `j0 + t*NR ..`, stored p-major so
/// the micro-kernel reads `NR` values per k-step from one contiguous slot.
/// A short last strip is zeroed first, so its columns beyond `nb` pad with
/// zeros; full strips are only written.
///
/// Element `(p, j)` sits at `j * k + p` for [`Transpose::B`] (`b: [n, k]`,
/// read as `Bᵀ` in place) and at `p * n + j` otherwise (`b: [k, n]`).
#[allow(clippy::too_many_arguments)]
fn pack_b(
    b: &[f32],
    transpose: Transpose,
    k: usize,
    n: usize,
    p0: usize,
    kb: usize,
    j0: usize,
    nb: usize,
    bpack: &mut [f32],
) {
    let strips = nb.div_ceil(NR);
    debug_assert!(bpack.len() >= strips * kb * NR);
    for (t, strip) in bpack.chunks_exact_mut(kb * NR).take(strips).enumerate() {
        let cols = NR.min(nb - t * NR);
        if cols < NR {
            strip.fill(0.0);
        }
        match transpose {
            Transpose::Neither | Transpose::A => {
                for (p, slot) in strip.chunks_exact_mut(NR).enumerate() {
                    copy_slot::<NR>(slot, &b[(p0 + p) * n + j0 + t * NR..], cols);
                }
            }
            Transpose::B => {
                for c in 0..cols {
                    let src = &b[(j0 + t * NR + c) * k + p0..][..kb];
                    for (p, &v) in src.iter().enumerate() {
                        strip[p * NR + c] = v;
                    }
                }
            }
        }
    }
}

/// The register-tile kernel: `acc += Apanel · Bpanel` over `kb` k-steps.
///
/// Both panels are contiguous (`kb * MR` and `kb * NR`), so the inner loops
/// are straight fused multiply–adds over fixed-size arrays, which the
/// compiler unrolls and vectorizes.
#[inline]
fn microkernel(apack: &[f32], bpack: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (avec, bvec) in apack.chunks_exact(MR).zip(bpack.chunks_exact(NR)) {
        let avec: &[f32; MR] = avec.try_into().expect("chunks_exact(MR)");
        let bvec: &[f32; NR] = bvec.try_into().expect("chunks_exact(NR)");
        for r in 0..MR {
            let ar = avec[r];
            for c in 0..NR {
                acc[r][c] += ar * bvec[c];
            }
        }
    }
}

/// Multiplies the packed A panel for rows `i0..i0+mb` against the packed B
/// panel for columns `j0..j0+nb`, accumulating into the row-major `out`
/// (full width `n`).
#[allow(clippy::too_many_arguments)]
fn run_panel(
    apack: &[f32],
    bpack: &[f32],
    kb: usize,
    mb: usize,
    nb: usize,
    i0: usize,
    j0: usize,
    n: usize,
    out: &mut [f32],
) {
    let a_strips = mb.div_ceil(MR);
    for (t, bstrip) in bpack
        .chunks_exact(kb * NR)
        .take(nb.div_ceil(NR))
        .enumerate()
    {
        let cols = NR.min(nb - t * NR);
        for s in 0..a_strips {
            let rows = MR.min(mb - s * MR);
            let astrip = &apack[s * kb * MR..(s + 1) * kb * MR];
            let mut acc = [[0.0f32; NR]; MR];
            microkernel(astrip, bstrip, &mut acc);
            for (r, acc_row) in acc.iter().take(rows).enumerate() {
                let dst = &mut out[(i0 + s * MR + r) * n + j0 + t * NR..][..cols];
                for (o, v) in dst.iter_mut().zip(&acc_row[..cols]) {
                    *o += v;
                }
            }
        }
    }
}

// Pack buffers are thread-local, so repeated matmuls on one thread reuse
// one long-lived allocation. They are sized for the largest panel a call
// will see, so tiny products don't touch full-size tiles; pack_a/pack_b
// overwrite their active region, so no pre-fill is needed beyond Vec
// growth.
thread_local! {
    static PACK_SCRATCH: std::cell::RefCell<(Vec<f32>, Vec<f32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// The operand of a [`matmul_into`] product that is read transposed, in
/// place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transpose {
    /// `C = A·B` for `A: [m, k]`, `B: [k, n]`.
    Neither,
    /// `C = Aᵀ·B` for `A: [k, m]`, `B: [k, n]`. This is the dense-layer
    /// weight-gradient shape: with per-sample gradients `g: [n, out]` and
    /// inputs `x: [n, in]`, it computes `dW += gᵀ·x`.
    A,
    /// `C = A·Bᵀ` for `A: [m, k]`, `B: [n, k]`. This is the convolution
    /// weight-gradient shape: with the gathered output gradient
    /// `gy: [oc, n*oh*ow]` and the im2col column matrix
    /// `cols: [c*kh*kw, n*oh*ow]`, it computes `dW += gy·colsᵀ`.
    B,
}

/// `C = A·B` for `A: [m, k]`, `B: [k, n]` in a new tensor: the allocating
/// form of [`matmul_into`] with [`Transpose::Neither`] and `beta = 0`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless both operands are rank-2
/// with matching inner dimension.
///
/// # Example
///
/// ```
/// use reveil_tensor::{ops, Tensor};
/// # fn main() -> Result<(), reveil_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0])?;
/// let b = Tensor::from_vec(vec![2, 1], vec![3.0, 4.0])?;
/// assert_eq!(ops::matmul(&a, &b)?.data(), &[11.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, _, n) = check_matmul("matmul", a, b, Transpose::Neither)?;
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into(a, b, Transpose::Neither, 0.0, &mut out)?;
    Ok(out)
}

/// `C = A·B + beta·C` written into the caller-provided `out`, reusing its
/// allocation, with the operand that `transpose` names read transposed in
/// place.
///
/// `beta == 0.0` overwrites `out` (stale contents — including NaN — are
/// overwritten, not multiplied); `beta == 1.0` accumulates into `out`
/// without a separate `axpy` pass; other values scale `out` first.
/// Gradient paths use `beta = 1.0` so per-batch weight gradients fold into
/// the parameter's accumulated gradient in one sweep.
///
/// Each output element is `beta·C` plus, per `KC`-block of k, one partial
/// sum that starts at 0.0 and accumulates in k order. Results are
/// deterministic, but when `k` spans multiple blocks they can differ from a
/// separate matmul-then-`axpy` by normal f32 rounding (the two group the
/// same additions differently).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless both operands are rank-2
/// with matching inner dimension as `transpose` reads them, and `out` is
/// `[m, n]`.
///
/// # Example
///
/// A conv-backward weight gradient `dW += gy·colsᵀ`:
///
/// ```
/// use reveil_tensor::ops::{self, Transpose};
/// use reveil_tensor::Tensor;
/// # fn main() -> Result<(), reveil_tensor::TensorError> {
/// let gy = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0])?; // [oc, n*oh*ow]
/// let cols = Tensor::from_vec(vec![1, 2], vec![3.0, 4.0])?; // [c*kh*kw, n*oh*ow]
/// let mut dw = Tensor::from_vec(vec![1, 1], vec![100.0])?; // running grad
/// ops::matmul_into(&gy, &cols, Transpose::B, 1.0, &mut dw)?;
/// assert_eq!(dw.data(), &[111.0]); // 100 + (1·3 + 2·4)
/// # Ok(())
/// # }
/// ```
pub fn matmul_into(
    a: &Tensor,
    b: &Tensor,
    transpose: Transpose,
    beta: f32,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let (m, k, n) = check_matmul("matmul_into", a, b, transpose)?;
    check_out("matmul_into", out, m, n)?;
    let (a, b, out) = (a.data(), b.data(), out.data_mut());
    if beta == 0.0 {
        out.fill(0.0);
    } else if beta != 1.0 {
        for v in out.iter_mut() {
            *v *= beta;
        }
    }
    if m == 0 || n == 0 || k == 0 {
        return Ok(());
    }
    // The `(jc, pc, ic)` loop nest packs each B block once and sweeps every
    // A panel against it.
    PACK_SCRATCH.with(|cell| {
        let (apack, bpack) = &mut *cell.borrow_mut();
        let kc_eff = KC.min(k);
        let a_len = MC.min(m).div_ceil(MR) * MR * kc_eff;
        let b_len = NC.min(n).div_ceil(NR) * NR * kc_eff;
        if apack.len() < a_len {
            apack.resize(a_len, 0.0);
        }
        if bpack.len() < b_len {
            bpack.resize(b_len, 0.0);
        }
        for jc in (0..n).step_by(NC) {
            let nb = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kb = KC.min(k - pc);
                pack_b(b, transpose, k, n, pc, kb, jc, nb, bpack);
                for ic in (0..m).step_by(MC) {
                    let mb = MC.min(m - ic);
                    pack_a(a, transpose, k, m, ic, mb, pc, kb, apack);
                    run_panel(apack, bpack, kb, mb, nb, ic, jc, n, out);
                }
            }
        }
    });
    Ok(())
}

/// Validates the operands of a `transpose` product, returning `(m, k, n)`
/// with `op` attached to any error.
fn check_matmul(
    op: &'static str,
    a: &Tensor,
    b: &Tensor,
    transpose: Transpose,
) -> Result<(usize, usize, usize), TensorError> {
    let (a_rows, a_cols) = expect_rank2(op, a)?;
    let (b_rows, b_cols) = expect_rank2(op, b)?;
    let ((m, k), (k2, n)) = match transpose {
        Transpose::Neither => ((a_rows, a_cols), (b_rows, b_cols)),
        Transpose::A => ((a_cols, a_rows), (b_rows, b_cols)),
        Transpose::B => ((a_rows, a_cols), (b_cols, b_rows)),
    };
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op,
            expected: a.shape().to_vec(),
            got: b.shape().to_vec(),
        });
    }
    Ok((m, k, n))
}

/// Validates a caller-provided output buffer of shape `[m, n]`.
fn check_out(op: &'static str, out: &Tensor, m: usize, n: usize) -> Result<(), TensorError> {
    if out.shape() != [m, n] {
        return Err(TensorError::ShapeMismatch {
            op,
            expected: vec![m, n],
            got: out.shape().to_vec(),
        });
    }
    Ok(())
}

/// Transpose of a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `t` is not rank-2.
pub fn transpose(t: &Tensor) -> Result<Tensor, TensorError> {
    let (r, c) = expect_rank2("transpose", t)?;
    let mut out = Tensor::zeros(&[c, r]);
    let src = t.data();
    let dst = out.data_mut();
    for i in 0..r {
        for j in 0..c {
            dst[j * r + i] = src[i * c + j];
        }
    }
    Ok(out)
}

/// Adds a length-`n` row vector to every row of an `[m, n]` matrix (bias
/// broadcast).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on rank or length mismatch, and
/// [`TensorError::InvalidArgument`] if `matrix` has no columns.
pub fn add_row(matrix: &mut Tensor, row: &Tensor) -> Result<(), TensorError> {
    let (_, n) = expect_rows("add_row", matrix)?;
    if row.shape() != [n] {
        return Err(TensorError::ShapeMismatch {
            op: "add_row",
            expected: vec![n],
            got: row.shape().to_vec(),
        });
    }
    let rd = row.data();
    for out_row in matrix.data_mut().chunks_mut(n) {
        for (o, &b) in out_row.iter_mut().zip(rd) {
            *o += b;
        }
    }
    Ok(())
}

/// Row-wise softmax of an `[m, n]` logits matrix, numerically stabilised by
/// max subtraction.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `logits` is not rank-2, and
/// [`TensorError::InvalidArgument`] if it has no columns.
pub fn softmax_rows(logits: &Tensor) -> Result<Tensor, TensorError> {
    let mut out = Tensor::default();
    softmax_rows_into(logits, &mut out)?;
    Ok(out)
}

/// [`softmax_rows`] writing into a caller-provided tensor, reusing its
/// allocation (the prediction step of the zero-allocation audit path).
/// Same max-shifted arithmetic, so results are bit-identical to
/// [`softmax_rows`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `logits` is not rank-2, and
/// [`TensorError::InvalidArgument`] if it has no columns.
pub fn softmax_rows_into(logits: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let (_, n) = expect_rows("softmax_rows", logits)?;
    out.resize_for_overwrite(logits.shape());
    out.data_mut().copy_from_slice(logits.data());
    for row in out.data_mut().chunks_mut(n) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = math::exp(*v - max);
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    Ok(())
}

/// Per-row argmax of an `[m, n]` matrix (predicted class per sample).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `matrix` is not rank-2, and
/// [`TensorError::InvalidArgument`] if it has no columns.
pub fn argmax_rows(matrix: &Tensor) -> Result<Vec<usize>, TensorError> {
    let mut out = Vec::new();
    argmax_rows_into(matrix, &mut out)?;
    Ok(out)
}

/// [`argmax_rows`] writing into a caller-provided vector, reusing its
/// allocation. First-maximum-wins tie-breaking, identical to
/// [`argmax_rows`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `matrix` is not rank-2, and
/// [`TensorError::InvalidArgument`] if it has no columns.
pub fn argmax_rows_into(matrix: &Tensor, out: &mut Vec<usize>) -> Result<(), TensorError> {
    let (_, n) = expect_rows("argmax_rows", matrix)?;
    out.clear();
    out.extend(matrix.data().chunks(n).map(|row| {
        let mut best = 0;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        best
    }));
    Ok(())
}

/// Shannon entropy (nats) of each row of a probability matrix, written into
/// a caller-provided vector, reusing its allocation (the STRIP hot loop).
///
/// Rows are assumed non-negative; zero entries contribute zero.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `probs` is not rank-2, and
/// [`TensorError::InvalidArgument`] if it has no columns.
pub fn entropy_rows_into(probs: &Tensor, out: &mut Vec<f32>) -> Result<(), TensorError> {
    let (_, n) = expect_rows("entropy_rows", probs)?;
    out.clear();
    out.extend(probs.data().chunks(n).map(|row| {
        -row.iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f32>()
    }));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), data.to_vec()).unwrap()
    }

    /// `op(A)·op(B)` in a new tensor: [`matmul_into`] with `beta = 0`.
    fn product(a: &Tensor, b: &Tensor, transpose: Transpose) -> Tensor {
        let (m, _, n) = check_matmul("product", a, b, transpose).unwrap();
        let mut out = Tensor::zeros(&[m, n]);
        matmul_into(a, b, transpose, 0.0, &mut out).unwrap();
        out
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[3, 2], &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t(&[2, 3], &[0.0; 6]);
        let b = t(&[2, 3], &[0.0; 6]);
        assert!(matmul(&a, &b).is_err());
        let v = t(&[3], &[0.0; 3]);
        assert!(matmul(&a, &v).is_err());
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = t(&[3, 2], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[3, 4], &(0..12).map(|i| i as f32).collect::<Vec<_>>());
        let expected = matmul(&transpose(&a).unwrap(), &b).unwrap();
        assert_eq!(product(&a, &b, Transpose::A), expected);

        let c = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let d = t(&[4, 3], &(0..12).map(|i| i as f32).collect::<Vec<_>>());
        let expected = matmul(&c, &transpose(&d).unwrap()).unwrap();
        assert_eq!(product(&c, &d, Transpose::B), expected);
    }

    /// Naive triple-loop reference for `A·B` with explicit index maps, used
    /// to validate the packed kernel.
    fn naive_matmul(
        a: &Tensor,
        b: &Tensor,
        m: usize,
        k: usize,
        n: usize,
        a_index: impl Fn(usize, usize) -> usize,
        b_index: impl Fn(usize, usize) -> usize,
    ) -> Tensor {
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    out.data_mut()[i * n + j] += a.data()[a_index(i, p)] * b.data()[b_index(p, j)];
                }
            }
        }
        out
    }

    fn assert_close(fast: &Tensor, slow: &Tensor, tol: f32) {
        assert_eq!(fast.shape(), slow.shape());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    /// Shapes chosen to cross every tile boundary: prime extents, extents
    /// straddling MR/NR/KC multiples, degenerate single rows/columns.
    const AWKWARD_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 7, 1),
        (3, 5, 2),
        (7, 11, 13),
        (8, 8, 8),
        (9, 8, 9),
        (17, 31, 23),
        (64, 33, 70),
        (65, 257, 41),
        (129, 3, 513),
    ];

    #[test]
    fn packed_matmul_matches_naive_on_awkward_shapes() {
        for &(m, k, n) in AWKWARD_SHAPES {
            let a = Tensor::from_fn(&[m, k], |i| ((i * 37 % 11) as f32) - 5.0);
            let b = Tensor::from_fn(&[k, n], |i| ((i * 53 % 7) as f32) - 3.0);
            let fast = matmul(&a, &b).unwrap();
            let slow = naive_matmul(&a, &b, m, k, n, |i, p| i * k + p, |p, j| p * n + j);
            assert_close(&fast, &slow, 1e-4 * k as f32);
        }
    }

    #[test]
    fn packed_matmul_tn_matches_naive_on_awkward_shapes() {
        for &(m, k, n) in AWKWARD_SHAPES {
            let a = Tensor::from_fn(&[k, m], |i| ((i * 29 % 13) as f32) - 6.0);
            let b = Tensor::from_fn(&[k, n], |i| ((i * 41 % 9) as f32) - 4.0);
            let fast = product(&a, &b, Transpose::A);
            let slow = naive_matmul(&a, &b, m, k, n, |i, p| p * m + i, |p, j| p * n + j);
            assert_close(&fast, &slow, 1e-4 * k as f32);
        }
    }

    #[test]
    fn packed_matmul_nt_matches_naive_on_awkward_shapes() {
        for &(m, k, n) in AWKWARD_SHAPES {
            let a = Tensor::from_fn(&[m, k], |i| ((i * 23 % 17) as f32) - 8.0);
            let b = Tensor::from_fn(&[n, k], |i| ((i * 31 % 19) as f32) - 9.0);
            let fast = product(&a, &b, Transpose::B);
            let slow = naive_matmul(&a, &b, m, k, n, |i, p| i * k + p, |p, j| j * k + p);
            assert_close(&fast, &slow, 1e-4 * k as f32);
        }
    }

    /// Every accumulate flavour against naive `A·B + beta·C` on the same
    /// tile-crossing shapes as the plain variants, for overwrite, pure
    /// accumulate, and scaled-accumulate epilogues.
    #[test]
    fn acc_variants_match_naive_on_awkward_shapes() {
        for &(m, k, n) in AWKWARD_SHAPES {
            for beta in [0.0f32, 1.0, 0.5] {
                let c0 = Tensor::from_fn(&[m, n], |i| ((i * 19 % 23) as f32) - 11.0);
                let with_beta = |product: Tensor| {
                    let mut expected = c0.clone();
                    expected.scale(beta);
                    expected.axpy(1.0, &product).unwrap();
                    expected
                };

                let a = Tensor::from_fn(&[m, k], |i| ((i * 37 % 11) as f32) - 5.0);
                let b = Tensor::from_fn(&[k, n], |i| ((i * 53 % 7) as f32) - 3.0);
                let mut out = c0.clone();
                matmul_into(&a, &b, Transpose::Neither, beta, &mut out).unwrap();
                let naive = naive_matmul(&a, &b, m, k, n, |i, p| i * k + p, |p, j| p * n + j);
                assert_close(&out, &with_beta(naive), 1e-4 * k as f32);

                let at = Tensor::from_fn(&[k, m], |i| ((i * 29 % 13) as f32) - 6.0);
                let mut out = c0.clone();
                matmul_into(&at, &b, Transpose::A, beta, &mut out).unwrap();
                let naive = naive_matmul(&at, &b, m, k, n, |i, p| p * m + i, |p, j| p * n + j);
                assert_close(&out, &with_beta(naive), 1e-4 * k as f32);

                let bt = Tensor::from_fn(&[n, k], |i| ((i * 31 % 19) as f32) - 9.0);
                let mut out = c0.clone();
                matmul_into(&a, &bt, Transpose::B, beta, &mut out).unwrap();
                let naive = naive_matmul(&a, &bt, m, k, n, |i, p| i * k + p, |p, j| j * k + p);
                assert_close(&out, &with_beta(naive), 1e-4 * k as f32);
            }
        }
    }

    /// `beta·C + A·B` summed the way the packed kernel sums it: `C` is
    /// scaled (or zeroed at `beta == 0`), then each `KC` block of k adds
    /// one partial sum that starts at 0.0 and accumulates `a·b` in k order.
    fn blocked_reference(
        a: &Tensor,
        b: &Tensor,
        c0: &Tensor,
        beta: f32,
        (m, k, n): (usize, usize, usize),
        a_index: impl Fn(usize, usize) -> usize,
        b_index: impl Fn(usize, usize) -> usize,
    ) -> Tensor {
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut c = if beta == 0.0 {
                    0.0
                } else if beta == 1.0 {
                    c0.data()[i * n + j]
                } else {
                    c0.data()[i * n + j] * beta
                };
                for block in (0..k).step_by(KC) {
                    let mut acc = 0.0f32;
                    for p in block..(block + KC).min(k) {
                        acc += a.data()[a_index(i, p)] * b.data()[b_index(p, j)];
                    }
                    c += acc;
                }
                out.data_mut()[i * n + j] = c;
            }
        }
        out
    }

    /// The packed GEMM equals [`blocked_reference`] bit for bit in every
    /// transpose flavour and epilogue, on non-integer data where a change
    /// of summation order shows in the last bits.
    #[test]
    fn packed_gemm_keeps_its_summation_order_bit_for_bit() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &(m, k, n) in AWKWARD_SHAPES {
            let dims = (m, k, n);
            let a = Tensor::from_fn(&[m, k], |i| ((i * 37 % 11) as f32 - 5.0) * 0.173 + 0.011);
            let at = Tensor::from_fn(&[k, m], |i| ((i * 29 % 13) as f32 - 6.0) * 0.219 - 0.007);
            let b = Tensor::from_fn(&[k, n], |i| ((i * 53 % 7) as f32 - 3.0) * 0.311 + 0.005);
            let bt = Tensor::from_fn(&[n, k], |i| ((i * 31 % 19) as f32 - 9.0) * 0.097 - 0.013);
            let c0 = Tensor::from_fn(&[m, n], |i| ((i * 19 % 23) as f32 - 11.0) * 0.131);
            let (row_a, col_a) = (|i, p| i * k + p, |i, p| p * m + i);
            let (row_b, col_b) = (|p, j| p * n + j, |p, j| j * k + p);
            for beta in [0.0f32, 1.0, 0.5] {
                let case = format!("{m}x{k}x{n} beta {beta}");
                let mut out = c0.clone();
                matmul_into(&a, &b, Transpose::Neither, beta, &mut out).unwrap();
                let want = blocked_reference(&a, &b, &c0, beta, dims, row_a, row_b);
                assert_eq!(bits(&out), bits(&want), "NN {case}");

                let mut out = c0.clone();
                matmul_into(&at, &b, Transpose::A, beta, &mut out).unwrap();
                let want = blocked_reference(&at, &b, &c0, beta, dims, col_a, row_b);
                assert_eq!(bits(&out), bits(&want), "TN {case}");

                let mut out = c0.clone();
                matmul_into(&a, &bt, Transpose::B, beta, &mut out).unwrap();
                let want = blocked_reference(&a, &bt, &c0, beta, dims, row_a, col_b);
                assert_eq!(bits(&out), bits(&want), "NT {case}");
            }
            // Overwriting a fresh zeroed tensor is the beta = 0 epilogue.
            let zero = Tensor::zeros(&[m, n]);
            let want = blocked_reference(&a, &b, &zero, 0.0, dims, row_a, row_b);
            assert_eq!(
                bits(&matmul(&a, &b).unwrap()),
                bits(&want),
                "NN {m}x{k}x{n}"
            );
            let want = blocked_reference(&at, &b, &zero, 0.0, dims, col_a, row_b);
            assert_eq!(
                bits(&product(&at, &b, Transpose::A)),
                bits(&want),
                "TN {m}x{k}x{n}"
            );
            let want = blocked_reference(&a, &bt, &zero, 0.0, dims, row_a, col_b);
            assert_eq!(
                bits(&product(&a, &bt, Transpose::B)),
                bits(&want),
                "NT {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn acc_beta_zero_overwrites_stale_nan() {
        let a = Tensor::from_fn(&[5, 7], |i| i as f32 * 0.25);
        let b = Tensor::from_fn(&[7, 3], |i| 1.0 - i as f32 * 0.125);
        let mut out = Tensor::full(&[5, 3], f32::NAN);
        matmul_into(&a, &b, Transpose::Neither, 0.0, &mut out).unwrap();
        assert_eq!(
            out,
            matmul(&a, &b).unwrap(),
            "beta=0 must clear NaN, not multiply it"
        );
    }

    #[test]
    fn acc_beta_one_is_matmul_plus_axpy() {
        // For k <= KC (a single k-block) the fused epilogue is bit-identical
        // to the two-pass matmul-then-axpy it replaces: each element is
        // C + P with the same product P. For k > KC the fused path computes
        // ((C + P1) + P2) while the split path computes C + (P1 + P2) —
        // same value up to f32 rounding, covered (with tolerance) by
        // acc_variants_match_naive_on_awkward_shapes at k = 257.
        let gy = Tensor::from_fn(&[6, 40], |i| ((i * 7 % 13) as f32 - 6.0) * 0.1);
        let cols = Tensor::from_fn(&[9, 40], |i| ((i * 11 % 17) as f32 - 8.0) * 0.1);
        let grad0 = Tensor::from_fn(&[6, 9], |i| ((i * 3 % 5) as f32 - 2.0) * 0.5);

        let mut fused = grad0.clone();
        matmul_into(&gy, &cols, Transpose::B, 1.0, &mut fused).unwrap();

        let mut split = grad0.clone();
        let mut product = Tensor::zeros(&[6, 9]);
        matmul_into(&gy, &cols, Transpose::B, 0.0, &mut product).unwrap();
        split.axpy(1.0, &product).unwrap();

        assert_eq!(fused, split);
    }

    #[test]
    fn acc_with_empty_k_applies_beta_only() {
        // k == 0: the product contributes nothing, but beta must still hit
        // the output (the early return cannot skip the epilogue).
        let a = Tensor::zeros(&[2, 0]);
        let b = Tensor::zeros(&[0, 3]);
        let mut out = Tensor::full(&[2, 3], 4.0);
        matmul_into(&a, &b, Transpose::Neither, 0.5, &mut out).unwrap();
        assert_eq!(out.data(), &[2.0; 6]);
    }

    #[test]
    fn acc_errors_name_the_operation() {
        // NN: valid operands into a bad output. TN / NT: operands whose
        // inner dimensions disagree, into the output their outer dimensions
        // would produce, so only the operand check can reject them.
        let a = Tensor::zeros(&[2, 3]);
        for (transpose, b, out, expected, got) in [
            (Transpose::Neither, [3, 4], [2, 5], [2, 4], [2, 5]),
            (Transpose::A, [4, 2], [3, 2], [2, 3], [4, 2]),
            (Transpose::B, [4, 4], [2, 4], [2, 3], [4, 4]),
        ] {
            let (b, mut out) = (Tensor::zeros(&b), Tensor::zeros(&out));
            let err = matmul_into(&a, &b, transpose, 1.0, &mut out).unwrap_err();
            assert!(
                err.to_string().contains("matmul_into"),
                "{transpose:?}: {err}"
            );
            assert_shape_mismatch(&err, &expected, &got);
        }
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches_allocating_path() {
        let a = Tensor::from_fn(&[17, 31], |i| ((i * 7 % 5) as f32) - 2.0);
        let b = Tensor::from_fn(&[31, 23], |i| ((i * 11 % 3) as f32) - 1.0);
        let mut out = Tensor::full(&[17, 23], f32::NAN);
        // Stale contents must be fully overwritten.
        matmul_into(&a, &b, Transpose::Neither, 0.0, &mut out).unwrap();
        assert_eq!(out, matmul(&a, &b).unwrap());
        // Second call over the same buffer gives bit-identical results.
        let first = out.clone();
        matmul_into(&a, &b, Transpose::Neither, 0.0, &mut out).unwrap();
        assert_eq!(out, first);

        // The transposed flavours of the same product overwrite it alike.
        let at = transpose(&a).unwrap();
        out.data_mut().fill(f32::NAN);
        matmul_into(&at, &b, Transpose::A, 0.0, &mut out).unwrap();
        assert_eq!(out, first);
        let bt = transpose(&b).unwrap();
        out.data_mut().fill(f32::NAN);
        matmul_into(&a, &bt, Transpose::B, 0.0, &mut out).unwrap();
        assert_eq!(out, first);
    }

    #[test]
    fn matmul_into_reports_op_on_bad_output_shape() {
        let mut out = Tensor::zeros(&[2, 5]);
        for (transpose, a, b) in [
            (Transpose::Neither, [2, 3], [3, 4]),
            (Transpose::A, [3, 2], [3, 4]),
            (Transpose::B, [2, 3], [4, 3]),
        ] {
            let (a, b) = (Tensor::zeros(&a), Tensor::zeros(&b));
            let err = matmul_into(&a, &b, transpose, 0.0, &mut out).unwrap_err();
            assert!(
                err.to_string().contains("matmul_into"),
                "{transpose:?}: {err}"
            );
            assert_shape_mismatch(&err, &[2, 4], &[2, 5]);
        }
    }

    #[test]
    fn matmul_errors_name_the_operation() {
        // Each transposed case gets the output its outer dimensions would
        // produce (`[3, 2]` for TN, `[2, 4]` for NT), so only the operand
        // check can reject the inner-dimension mismatch.
        let a = Tensor::zeros(&[2, 3]);
        let bad = Tensor::zeros(&[2, 3]);
        let (tn_bad, nt_bad) = (Tensor::zeros(&[4, 2]), Tensor::zeros(&[4, 4]));
        let (mut tn_out, mut nt_out) = (Tensor::zeros(&[3, 2]), Tensor::zeros(&[2, 4]));
        for (name, err, got) in [
            ("matmul", matmul(&a, &bad).unwrap_err(), [2, 3]),
            (
                "matmul_into",
                matmul_into(&a, &tn_bad, Transpose::A, 0.0, &mut tn_out).unwrap_err(),
                [4, 2],
            ),
            (
                "matmul_into",
                matmul_into(&a, &nt_bad, Transpose::B, 0.0, &mut nt_out).unwrap_err(),
                [4, 4],
            ),
        ] {
            assert!(err.to_string().contains(name), "{name}: {err}");
            assert_shape_mismatch(&err, &[2, 3], &got);
        }
    }

    /// Asserts that `err` is a [`TensorError::ShapeMismatch`] reporting
    /// `expected` and `got`.
    fn assert_shape_mismatch(err: &TensorError, expected: &[usize], got: &[usize]) {
        assert!(
            matches!(err, TensorError::ShapeMismatch { expected: e, got: g, .. }
                if e == expected && g == got),
            "want expected {expected:?}, got {got:?}: {err}"
        );
    }

    #[test]
    fn add_row_and_sum_rows_are_adjoint_shapes() {
        let mut m = Tensor::zeros(&[3, 2]);
        let bias = t(&[2], &[1.0, -1.0]);
        add_row(&mut m, &bias).unwrap();
        assert_eq!(m.data(), &[1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
        // Its adjoint sums the rows: a ones row times the matrix.
        let sums = matmul(&Tensor::ones(&[1, 3]), &m).unwrap();
        assert_eq!(sums.data(), &[3.0, -3.0]);
    }

    #[test]
    fn row_ops_reject_zero_columns() {
        for shape in [[2, 0], [0, 0]] {
            let mut m = Tensor::zeros(&shape);
            let errs = [
                add_row(&mut m, &Tensor::zeros(&[0])).unwrap_err(),
                softmax_rows(&m).unwrap_err(),
                argmax_rows(&m).unwrap_err(),
                entropy_rows_into(&m, &mut Vec::new()).unwrap_err(),
            ];
            for err in errs {
                assert!(
                    matches!(err, TensorError::InvalidArgument { .. }),
                    "{shape:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn softmax_rows_is_normalised_and_stable() {
        let logits = t(&[2, 3], &[1000.0, 1001.0, 1002.0, 0.0, 0.0, 0.0]);
        let p = softmax_rows(&logits).unwrap();
        for row in p.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v.is_finite() && v >= 0.0));
        }
        // Uniform logits give uniform probabilities.
        assert!((p.data()[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_and_entropy_rows() {
        let probs = t(&[2, 2], &[0.9, 0.1, 0.5, 0.5]);
        assert_eq!(argmax_rows(&probs).unwrap(), vec![0, 0]);
        let mut h = Vec::new();
        entropy_rows_into(&probs, &mut h).unwrap();
        assert!(h[0] < h[1], "peaked row must have lower entropy");
        assert!((h[1] - (2.0f32).ln().abs()).abs() < 1e-6);
    }

    #[test]
    fn entropy_ignores_zero_probabilities() {
        let probs = t(&[1, 3], &[1.0, 0.0, 0.0]);
        let mut h = Vec::new();
        entropy_rows_into(&probs, &mut h).unwrap();
        assert_eq!(h, [0.0]);
    }
}
