//! `im2col`/`col2im` lowering used by the convolution layers.
//!
//! A convolution of a `[c, h, w]` input with `[oc, c, kh, kw]` kernels is
//! computed as a matmul between the kernel matrix `[oc, c*kh*kw]` and the
//! lowered column matrix produced by [`im2col`]; [`col2im`] is its adjoint
//! and routes output-space gradients back to input space.
//!
//! The batched variants [`im2col_batch_into`] and [`col2im_batch_into`]
//! lower a whole `[n, c, h, w]` mini-batch into one `[c*kh*kw, n*oh*ow]`
//! column matrix written into a caller-provided scratch tensor, so a
//! convolution layer performs one large matmul per call instead of `n`
//! small ones and allocates nothing per sample. The inner loops copy whole
//! valid row segments (computed analytically from the geometry) instead of
//! testing every tap for padding. Like the GEMM, the lowering runs
//! single-threaded on its caller's thread.

use crate::error::TensorError;
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride applied in both spatial directions.
    pub stride: usize,
    /// Zero padding applied symmetrically in both spatial directions.
    pub padding: usize,
}

impl ConvGeometry {
    /// Creates a geometry description.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the kernel is empty or the
    /// stride is zero.
    pub fn new(kh: usize, kw: usize, stride: usize, padding: usize) -> Result<Self, TensorError> {
        if kh == 0 || kw == 0 {
            return Err(TensorError::InvalidArgument {
                op: "ConvGeometry::new",
                message: format!("kernel {kh}x{kw} must be non-empty"),
            });
        }
        if stride == 0 {
            return Err(TensorError::InvalidArgument {
                op: "ConvGeometry::new",
                message: "stride must be positive".to_string(),
            });
        }
        Ok(Self {
            kh,
            kw,
            stride,
            padding,
        })
    }

    /// Output spatial size for an input of `h × w`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the padded input is
    /// smaller than the kernel.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize), TensorError> {
        let ph = h + 2 * self.padding;
        let pw = w + 2 * self.padding;
        if ph < self.kh || pw < self.kw {
            return Err(TensorError::InvalidArgument {
                op: "ConvGeometry::output_size",
                message: format!(
                    "padded input {ph}x{pw} smaller than kernel {}x{}",
                    self.kh, self.kw
                ),
            });
        }
        Ok((
            (ph - self.kh) / self.stride + 1,
            (pw - self.kw) / self.stride + 1,
        ))
    }

    /// Range of output positions `o` whose input tap `o*stride + k - padding`
    /// lands inside `[0, extent)`, clipped to `[0, out_extent)`.
    fn valid_out_range(&self, k: usize, extent: usize, out_extent: usize) -> (usize, usize) {
        let offset = k as isize - self.padding as isize;
        let stride = self.stride as isize;
        // o*stride + offset >= 0  =>  o >= ceil(-offset / stride)
        let lo = if offset >= 0 {
            0
        } else {
            (-offset + stride - 1) / stride
        };
        // o*stride + offset <= extent - 1  =>  o <= (extent - 1 - offset) / stride
        let last = extent as isize - 1 - offset;
        if last < 0 {
            return (0, 0);
        }
        let hi = (last / stride + 1).min(out_extent as isize);
        if lo >= hi {
            (0, 0)
        } else {
            (lo as usize, hi as usize)
        }
    }
}

/// Fills a batched `[c*kh*kw, n*oh*ow]` column matrix. Each row is one
/// kernel tap `(channel, ky, kx)`; sample `s` occupies the column block
/// `s*oh*ow..(s+1)*oh*ow`. `dst` is fully overwritten (padding taps become
/// zero).
#[allow(clippy::too_many_arguments)]
fn fill_im2col(
    src: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    oh: usize,
    ow: usize,
    dst: &mut [f32],
) {
    let ncols = n * oh * ow;
    let k2 = geom.kh * geom.kw;
    dst.fill(0.0);
    for row in 0..c * k2 {
        let row_dst = &mut dst[row * ncols..(row + 1) * ncols];
        let ch = row / k2;
        let ky = (row % k2) / geom.kw;
        let kx = row % geom.kw;
        let (oy_lo, oy_hi) = geom.valid_out_range(ky, h, oh);
        let (ox_lo, ox_hi) = geom.valid_out_range(kx, w, ow);
        if oy_lo >= oy_hi || ox_lo >= ox_hi {
            continue;
        }
        for s in 0..n {
            let sample_src = &src[(s * c + ch) * h * w..][..h * w];
            let col_base = s * oh * ow;
            for oy in oy_lo..oy_hi {
                let iy = oy * geom.stride + ky - geom.padding;
                let ix0 = ox_lo * geom.stride + kx - geom.padding;
                let seg = &mut row_dst[col_base + oy * ow + ox_lo..col_base + oy * ow + ox_hi];
                if geom.stride == 1 {
                    seg.copy_from_slice(&sample_src[iy * w + ix0..][..seg.len()]);
                } else {
                    let base = iy * w + ix0;
                    for (d, o) in seg.iter_mut().enumerate() {
                        *o = sample_src[base + d * geom.stride];
                    }
                }
            }
        }
    }
}

/// Scatters sample `s`'s column block of a batched `[c*kh*kw, n*oh*ow]`
/// matrix back into that sample's `[c, h, w]` gradient, accumulating where
/// receptive fields overlap. `dst` is fully overwritten.
#[allow(clippy::too_many_arguments)]
fn scatter_col2im_sample(
    cols: &[f32],
    s: usize,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    oh: usize,
    ow: usize,
    dst: &mut [f32],
) {
    let ncols = n * oh * ow;
    let k2 = geom.kh * geom.kw;
    dst.fill(0.0);
    for row in 0..c * k2 {
        let ch = row / k2;
        let ky = (row % k2) / geom.kw;
        let kx = row % geom.kw;
        let (oy_lo, oy_hi) = geom.valid_out_range(ky, h, oh);
        let (ox_lo, ox_hi) = geom.valid_out_range(kx, w, ow);
        let col_base = row * ncols + s * oh * ow;
        for oy in oy_lo..oy_hi {
            let iy = oy * geom.stride + ky - geom.padding;
            let ix0 = ox_lo * geom.stride + kx - geom.padding;
            let seg = &cols[col_base + oy * ow + ox_lo..col_base + oy * ow + ox_hi];
            let base = (ch * h + iy) * w + ix0;
            if geom.stride == 1 {
                for (o, &v) in dst[base..base + seg.len()].iter_mut().zip(seg) {
                    *o += v;
                }
            } else {
                for (d, &v) in seg.iter().enumerate() {
                    dst[base + d * geom.stride] += v;
                }
            }
        }
    }
}

/// Lowers a whole `[n, c, h, w]` mini-batch to one `[c*kh*kw, n*oh*ow]`
/// column matrix, writing into `out` (resized in place, reusing its
/// allocation). Sample `s` occupies columns `s*oh*ow..(s+1)*oh*ow`, so a
/// single matmul against the `[oc, c*kh*kw]` kernel matrix convolves the
/// whole batch.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` is not rank-4 and
/// propagates geometry errors from [`ConvGeometry::output_size`].
pub fn im2col_batch_into(
    input: &Tensor,
    geom: ConvGeometry,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let &[n, c, h, w] = input.shape() else {
        return Err(TensorError::ShapeMismatch {
            op: "im2col_batch_into",
            expected: vec![0, 0, 0, 0],
            got: input.shape().to_vec(),
        });
    };
    let (oh, ow) = geom.output_size(h, w)?;
    let rows = c * geom.kh * geom.kw;
    let ncols = n * oh * ow;
    // fill_im2col overwrites every element (padding included), so the
    // resize does not need to pre-fill.
    out.resize_for_overwrite(&[rows, ncols]);
    fill_im2col(input.data(), n, c, h, w, geom, oh, ow, out.data_mut());
    Ok(())
}

/// Adjoint of [`im2col_batch_into`]: scatters a `[c*kh*kw, n*oh*ow]` column
/// matrix back into an `[n, c, h, w]` gradient tensor, writing into `out`
/// (resized in place), one sample at a time.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not match the
/// geometry implied by `(n, c, h, w)` and `geom`.
pub fn col2im_batch_into(
    cols: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let (oh, ow) = geom.output_size(h, w)?;
    let rows = c * geom.kh * geom.kw;
    if cols.shape() != [rows, n * oh * ow] {
        return Err(TensorError::ShapeMismatch {
            op: "col2im_batch_into",
            expected: vec![rows, n * oh * ow],
            got: cols.shape().to_vec(),
        });
    }
    // scatter_col2im_sample zero-fills each sample chunk before
    // accumulating, so the resize does not need to pre-fill.
    out.resize_for_overwrite(&[n, c, h, w]);
    let sample_len = c * h * w;
    for s in 0..n {
        let dst = &mut out.data_mut()[s * sample_len..(s + 1) * sample_len];
        scatter_col2im_sample(cols.data(), s, n, c, h, w, geom, oh, ow, dst);
    }
    Ok(())
}

/// Lowers a `[c, h, w]` input to a `[c*kh*kw, oh*ow]` column matrix.
///
/// Column `q` (for output position `(oy, ox)`, `q = oy*ow + ox`) holds the
/// receptive field of that position, channel-major then row-major within the
/// kernel. Out-of-bounds taps (from padding) read as zero.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `input` is not rank-3 and
/// propagates geometry errors from [`ConvGeometry::output_size`].
pub fn im2col(input: &Tensor, geom: ConvGeometry) -> Result<Tensor, TensorError> {
    let &[c, h, w] = input.shape() else {
        return Err(TensorError::ShapeMismatch {
            op: "im2col",
            expected: vec![0, 0, 0],
            got: input.shape().to_vec(),
        });
    };
    let (oh, ow) = geom.output_size(h, w)?;
    let rows = c * geom.kh * geom.kw;
    let mut out = Tensor::zeros(&[rows, oh * ow]);
    fill_im2col(input.data(), 1, c, h, w, geom, oh, ow, out.data_mut());
    Ok(out)
}

/// Adjoint of [`im2col`]: scatters a `[c*kh*kw, oh*ow]` column matrix back
/// into a `[c, h, w]` tensor, accumulating where receptive fields overlap.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not match the
/// geometry implied by `(c, h, w)` and `geom`.
pub fn col2im(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
) -> Result<Tensor, TensorError> {
    let (oh, ow) = geom.output_size(h, w)?;
    let rows = c * geom.kh * geom.kw;
    if cols.shape() != [rows, oh * ow] {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            expected: vec![rows, oh * ow],
            got: cols.shape().to_vec(),
        });
    }
    let mut out = Tensor::zeros(&[c, h, w]);
    scatter_col2im_sample(cols.data(), 0, 1, c, h, w, geom, oh, ow, out.data_mut());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_size_matches_convention() {
        let g = ConvGeometry::new(3, 3, 1, 1).unwrap();
        assert_eq!(g.output_size(8, 8).unwrap(), (8, 8));
        let g = ConvGeometry::new(3, 3, 2, 1).unwrap();
        assert_eq!(g.output_size(8, 8).unwrap(), (4, 4));
        let g = ConvGeometry::new(2, 2, 2, 0).unwrap();
        assert_eq!(g.output_size(8, 8).unwrap(), (4, 4));
    }

    #[test]
    fn geometry_validates_arguments() {
        assert!(ConvGeometry::new(0, 3, 1, 0).is_err());
        assert!(ConvGeometry::new(3, 3, 0, 0).is_err());
        let g = ConvGeometry::new(5, 5, 1, 0).unwrap();
        assert!(g.output_size(3, 3).is_err());
    }

    #[test]
    fn im2col_identity_kernel_is_flatten() {
        // A 1x1 kernel with stride 1 lowers each channel to one row.
        let input = Tensor::from_fn(&[2, 2, 2], |i| i as f32);
        let g = ConvGeometry::new(1, 1, 1, 0).unwrap();
        let cols = im2col(&input, g).unwrap();
        assert_eq!(cols.shape(), &[2, 4]);
        assert_eq!(cols.data(), input.data());
    }

    #[test]
    fn im2col_extracts_receptive_fields() {
        // 1 channel, 3x3 image, 2x2 kernel, stride 1, no padding.
        let input = Tensor::from_vec(vec![1, 3, 3], (1..=9).map(|i| i as f32).collect()).unwrap();
        let g = ConvGeometry::new(2, 2, 1, 0).unwrap();
        let cols = im2col(&input, g).unwrap();
        assert_eq!(cols.shape(), &[4, 4]);
        // First output position sees [1,2,4,5]; reading down the column:
        assert_eq!(cols.at(&[0, 0]), 1.0);
        assert_eq!(cols.at(&[1, 0]), 2.0);
        assert_eq!(cols.at(&[2, 0]), 4.0);
        assert_eq!(cols.at(&[3, 0]), 5.0);
        // Last output position sees [5,6,8,9].
        assert_eq!(cols.at(&[0, 3]), 5.0);
        assert_eq!(cols.at(&[3, 3]), 9.0);
    }

    #[test]
    fn im2col_padding_reads_zero() {
        let input = Tensor::ones(&[1, 2, 2]);
        let g = ConvGeometry::new(3, 3, 1, 1).unwrap();
        let cols = im2col(&input, g).unwrap();
        assert_eq!(cols.shape(), &[9, 4]);
        // Center tap of the kernel always lands inside the image.
        for q in 0..4 {
            assert_eq!(cols.at(&[4, q]), 1.0);
        }
        // Top-left tap of the first output position is padding.
        assert_eq!(cols.at(&[0, 0]), 0.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y — the adjoint
        // identity that makes the conv backward pass correct.
        let c = 2;
        let h = 5;
        let w = 4;
        let g = ConvGeometry::new(3, 3, 2, 1).unwrap();
        let x = Tensor::from_fn(&[c, h, w], |i| ((i * 31 % 17) as f32) - 8.0);
        let (oh, ow) = g.output_size(h, w).unwrap();
        let y = Tensor::from_fn(&[c * 9, oh * ow], |i| ((i * 29 % 13) as f32) - 6.0);

        let lhs: f32 = im2col(&x, g)
            .unwrap()
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(col2im(&y, c, h, w, g).unwrap().data())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn batched_im2col_stacks_per_sample_lowerings() {
        // Awkward geometry: stride 2, padding 1, non-square input.
        let n = 3;
        let (c, h, w) = (2, 5, 4);
        let g = ConvGeometry::new(3, 3, 2, 1).unwrap();
        let batch = Tensor::from_fn(&[n, c, h, w], |i| ((i * 37 % 23) as f32) - 11.0);
        let mut cols = Tensor::zeros(&[0]);
        im2col_batch_into(&batch, g, &mut cols).unwrap();

        let (oh, ow) = g.output_size(h, w).unwrap();
        assert_eq!(cols.shape(), &[c * 9, n * oh * ow]);
        for s in 0..n {
            let single = im2col(&batch.outer_slice(s), g).unwrap();
            for r in 0..c * 9 {
                let got = &cols.data()[r * n * oh * ow + s * oh * ow..][..oh * ow];
                let want = &single.data()[r * oh * ow..][..oh * ow];
                assert_eq!(got, want, "row {r} sample {s}");
            }
        }
    }

    #[test]
    fn batched_col2im_stacks_per_sample_scatters() {
        let n = 2;
        let (c, h, w) = (2, 4, 5);
        let g = ConvGeometry::new(2, 3, 1, 1).unwrap();
        let (oh, ow) = g.output_size(h, w).unwrap();
        let rows = c * 6;
        let cols = Tensor::from_fn(&[rows, n * oh * ow], |i| ((i * 29 % 13) as f32) - 6.0);
        let mut grad = Tensor::zeros(&[0]);
        col2im_batch_into(&cols, n, c, h, w, g, &mut grad).unwrap();
        assert_eq!(grad.shape(), &[n, c, h, w]);

        for s in 0..n {
            // Extract sample s's column block and scatter it alone.
            let mut block = Tensor::zeros(&[rows, oh * ow]);
            for r in 0..rows {
                let src = &cols.data()[r * n * oh * ow + s * oh * ow..][..oh * ow];
                block.data_mut()[r * oh * ow..(r + 1) * oh * ow].copy_from_slice(src);
            }
            let single = col2im(&block, c, h, w, g).unwrap();
            assert_eq!(grad.outer_slice(s), single, "sample {s}");
        }
    }

    #[test]
    fn batch_into_reuses_allocations() {
        let g = ConvGeometry::new(3, 3, 1, 1).unwrap();
        let batch = Tensor::from_fn(&[4, 3, 8, 8], |i| i as f32 * 0.01);
        let mut cols = Tensor::zeros(&[0]);
        im2col_batch_into(&batch, g, &mut cols).unwrap();
        let first = cols.clone();
        let cap = cols.capacity();
        im2col_batch_into(&batch, g, &mut cols).unwrap();
        assert_eq!(cols, first, "reuse must be bit-identical");
        assert_eq!(cols.capacity(), cap, "no reallocation on reuse");
    }

    #[test]
    fn batch_into_rejects_bad_shapes() {
        let g = ConvGeometry::new(2, 2, 1, 0).unwrap();
        let mut out = Tensor::zeros(&[0]);
        let rank3 = Tensor::zeros(&[1, 3, 3]);
        assert!(im2col_batch_into(&rank3, g, &mut out).is_err());
        let bad_cols = Tensor::zeros(&[3, 3]);
        assert!(col2im_batch_into(&bad_cols, 1, 1, 3, 3, g, &mut out).is_err());
    }

    #[test]
    fn col2im_rejects_wrong_shapes() {
        let g = ConvGeometry::new(2, 2, 1, 0).unwrap();
        let bad = Tensor::zeros(&[3, 3]);
        assert!(col2im(&bad, 1, 3, 3, g).is_err());
    }
}
