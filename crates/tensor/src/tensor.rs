use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Sub, SubAssign};

use crate::error::TensorError;

/// An owned, dense, row-major `f32` tensor of arbitrary rank.
///
/// Images follow the NCHW convention throughout the workspace: a batch of
/// `n` RGB images of height `h` and width `w` has shape `[n, 3, h, w]` and a
/// single image has shape `[3, h, w]`.
///
/// # Example
///
/// ```
/// use reveil_tensor::Tensor;
///
/// # fn main() -> Result<(), reveil_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(t.len(), 4);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and a data buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(TensorError::LengthMismatch {
                op: "Tensor::from_vec",
                expected_len: expected,
                got_len: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: (0..len).map(&mut f).collect(),
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions (rank).
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Flat (row-major) offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds; indexing mistakes are programming errors, not runtime inputs.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.shape.len(),
            "index rank {} does not match tensor rank {}",
            index.len(),
            self.shape.len()
        );
        let mut off = 0;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for axis {i} with size {dim}"
            );
            off = off * dim + ix;
        }
        off
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates (see
    /// [`Tensor::offset`]).
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds coordinates (see
    /// [`Tensor::offset`]).
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the new shape implies a
    /// different element count.
    pub fn reshape(mut self, shape: Vec<usize>) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::LengthMismatch {
                op: "Tensor::reshape",
                expected_len: expected,
                got_len: self.data.len(),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise combination of two same-shape tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "Tensor::zip_map",
                expected: self.shape.clone(),
                got: other.shape.clone(),
            });
        }
        Ok(Self {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Adds `scale * other` into `self` (the BLAS `axpy` primitive used by
    /// every optimizer step).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, scale: f32, other: &Self) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "Tensor::axpy",
                expected: self.shape.clone(),
                got: other.shape.clone(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Multiplies every element by `value` in place.
    pub fn scale(&mut self, value: f32) {
        for v in &mut self.data {
            *v *= value;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshapes in place to `shape`, reusing the existing allocation when
    /// it is large enough (the scratch-buffer primitive behind the
    /// zero-allocation conv/matmul paths). Existing elements are left
    /// untouched and only growth is zero-initialised, so callers that
    /// overwrite every active element pay no redundant fill per reuse.
    pub fn resize_for_overwrite(&mut self, shape: &[usize]) {
        let len = shape.iter().product();
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(len, 0.0);
    }

    /// Number of elements the backing buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Clamps every element into `[lo, hi]` in place.
    pub fn clamp_inplace(&mut self, lo: f32, hi: f32) {
        for v in &mut self.data {
            *v = v.clamp(lo, hi);
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for the empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for the empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for the empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum of squared elements (squared L2 norm).
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Sum of absolute values (L1 norm).
    pub fn l1_norm(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// Flat index of the maximum element (first on ties).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of an empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Copies the `i`-th outermost slice (e.g. one image out of an NCHW
    /// batch) into a new tensor with the leading axis removed.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank-0 or `i` is out of bounds.
    pub fn outer_slice(&self, i: usize) -> Self {
        assert!(self.ndim() >= 1, "outer_slice of a rank-0 tensor");
        let n = self.shape[0];
        assert!(i < n, "outer index {i} out of bounds for leading axis {n}");
        let inner: usize = self.shape[1..].iter().product();
        let data = self.data[i * inner..(i + 1) * inner].to_vec();
        Self {
            shape: self.shape[1..].to_vec(),
            data,
        }
    }

    /// Writes `slice` into the `i`-th outermost slot of `self`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `slice` does not match the
    /// trailing shape of `self`, or [`TensorError::InvalidArgument`] if `i`
    /// is out of bounds.
    pub fn set_outer_slice(&mut self, i: usize, slice: &Self) -> Result<(), TensorError> {
        if self.ndim() < 1 || self.shape[1..] != *slice.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "Tensor::set_outer_slice",
                expected: self.shape.get(1..).unwrap_or(&[]).to_vec(),
                got: slice.shape.clone(),
            });
        }
        if i >= self.shape[0] {
            return Err(TensorError::InvalidArgument {
                op: "Tensor::set_outer_slice",
                message: format!("index {i} out of bounds for leading axis {}", self.shape[0]),
            });
        }
        let inner = slice.len();
        self.data[i * inner..(i + 1) * inner].copy_from_slice(slice.data());
        Ok(())
    }

    /// Stacks same-shaped tensors along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `items` is empty and
    /// [`TensorError::ShapeMismatch`] if any item disagrees on shape.
    pub fn stack(items: &[Self]) -> Result<Self, TensorError> {
        let first = items.first().ok_or_else(|| TensorError::InvalidArgument {
            op: "Tensor::stack",
            message: "cannot stack zero tensors".to_string(),
        })?;
        let mut shape = Vec::with_capacity(first.ndim() + 1);
        shape.push(items.len());
        shape.extend_from_slice(first.shape());
        let mut data = Vec::with_capacity(first.len() * items.len());
        for item in items {
            if item.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    op: "Tensor::stack",
                    expected: first.shape.clone(),
                    got: item.shape.clone(),
                });
            }
            data.extend_from_slice(item.data());
        }
        Ok(Self { shape, data })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Keep the representation non-empty but bounded: shape plus a small
        // data prefix is enough for debugging without flooding logs.
        let preview: Vec<f32> = self.data.iter().copied().take(8).collect();
        let ellipsis = if self.data.len() > 8 { ", ..." } else { "" };
        write!(f, "Tensor{:?}{:?}{}", self.shape, preview, ellipsis)
    }
}

macro_rules! impl_elementwise_op {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait<&Tensor> for &Tensor {
            type Output = Tensor;

            /// Elementwise operation on two same-shape tensors.
            ///
            /// # Panics
            ///
            /// Panics if the shapes differ; use [`Tensor::zip_map`] for a
            /// fallible variant.
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.zip_map(rhs, |a, b| a $op b)
                    .unwrap_or_else(|e| panic!("{e}"))
            }
        }

        impl $assign_trait<&Tensor> for Tensor {
            /// In-place elementwise operation.
            ///
            /// # Panics
            ///
            /// Panics if the shapes differ.
            fn $assign_method(&mut self, rhs: &Tensor) {
                assert_eq!(
                    self.shape, rhs.shape,
                    "elementwise assign: shape mismatch {:?} vs {:?}",
                    self.shape, rhs.shape
                );
                for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
                    *a = *a $op b;
                }
            }
        }
    };
}

impl_elementwise_op!(Add, add, AddAssign, add_assign, +);
impl_elementwise_op!(Sub, sub, SubAssign, sub_assign, -);
impl_elementwise_op!(Mul, mul, MulAssign, mul_assign, *);

impl Mul<f32> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: f32) -> Tensor {
        self.map(|v| v * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![0.0; 4]).is_ok());
        let err = Tensor::from_vec(vec![2, 2], vec![0.0; 3]).unwrap_err();
        assert!(matches!(err, TensorError::LengthMismatch { .. }));
    }

    #[test]
    fn offset_is_row_major() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.offset(&[0, 0, 0]), 0);
        assert_eq!(t.offset(&[0, 0, 3]), 3);
        assert_eq!(t.offset(&[0, 1, 0]), 4);
        assert_eq!(t.offset(&[1, 0, 0]), 12);
        assert_eq!(t.offset(&[1, 2, 3]), 23);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_panics_out_of_bounds() {
        Tensor::zeros(&[2, 2]).offset(&[0, 2]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.clone().reshape(vec![3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(vec![4, 2]).is_err());
    }

    #[test]
    fn elementwise_operators() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![10.0, 20.0, 30.0]).unwrap();
        assert_eq!((&a + &b).data(), &[11.0, 22.0, 33.0]);
        assert_eq!((&b - &a).data(), &[9.0, 18.0, 27.0]);
        assert_eq!((&a * &b).data(), &[10.0, 40.0, 90.0]);
        assert_eq!((&a * 2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[4]);
        let b = Tensor::full(&[4], 2.0);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[2.0; 4]);
        let c = Tensor::ones(&[5]);
        assert!(a.axpy(1.0, &c).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![4], vec![-1.0, 3.0, 2.0, -4.0]).unwrap();
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -4.0);
        assert_eq!(t.l1_norm(), 10.0);
        assert_eq!(t.sq_norm(), 30.0);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn argmax_ties_prefer_first() {
        let t = Tensor::from_vec(vec![3], vec![5.0, 5.0, 1.0]).unwrap();
        assert_eq!(t.argmax(), 0);
    }

    #[test]
    fn outer_slice_roundtrip() {
        let batch = Tensor::from_fn(&[3, 2, 2], |i| i as f32);
        let one = batch.outer_slice(1);
        assert_eq!(one.shape(), &[2, 2]);
        assert_eq!(one.data(), &[4.0, 5.0, 6.0, 7.0]);

        let mut out = Tensor::zeros(&[3, 2, 2]);
        out.set_outer_slice(1, &one).unwrap();
        assert_eq!(out.outer_slice(1), one);
        assert_eq!(out.outer_slice(0).sum(), 0.0);
    }

    #[test]
    fn stack_builds_batches() {
        let a = Tensor::full(&[2, 2], 1.0);
        let b = Tensor::full(&[2, 2], 2.0);
        let s = Tensor::stack(&[a, b]).unwrap();
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.outer_slice(1).data(), &[2.0; 4]);
        assert!(Tensor::stack(&[]).is_err());
    }

    #[test]
    fn clamp_and_scale() {
        let mut t = Tensor::from_vec(vec![3], vec![-1.0, 0.5, 2.0]).unwrap();
        t.clamp_inplace(0.0, 1.0);
        assert_eq!(t.data(), &[0.0, 0.5, 1.0]);
        t.scale(2.0);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0]);
        t.fill_zero();
        assert_eq!(t.data(), &[0.0; 3]);
    }

    #[test]
    fn resize_for_overwrite_reuses_allocation() {
        let mut t = Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let cap = t.capacity();
        t.resize_for_overwrite(&[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0], "same-size keeps elements");
        assert_eq!(t.capacity(), cap, "same-size resize must not reallocate");

        // Shrinking truncates; growing back zero-fills only the growth.
        t.resize_for_overwrite(&[3]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0]);
        t.resize_for_overwrite(&[2, 2]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 0.0]);
        assert_eq!(t.capacity(), cap);
    }

    #[test]
    fn debug_is_nonempty_and_bounded() {
        let t = Tensor::zeros(&[100]);
        let dbg = format!("{t:?}");
        assert!(dbg.contains("Tensor"));
        assert!(dbg.contains("..."));
        assert!(dbg.len() < 200);
    }

    #[test]
    fn tensor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tensor>();
    }
}
