//! Standard and depthwise 2-D convolution layers.
//!
//! [`Conv2d`] lowers the whole mini-batch to one `[c*kh*kw, n*oh*ow]`
//! column matrix via [`reveil_tensor::conv::im2col_batch_into`] and runs a
//! single packed matmul per layer call. Its intermediate buffers live in a
//! per-layer `ConvScratch` that is reused across calls, so the forward
//! and backward hot loops perform no per-sample heap allocation. The
//! backward reads dW from the column matrix its forward left in the
//! scratch, so the layer keeps no copy of its input; the input-only
//! backward needs no column matrix at all, and the parameter-only backward
//! no column-space gradient.
//!
//! [`DepthwiseConv2d`] does not lower. Each of its filters sees one
//! channel, so a column matrix would hold k² shifted copies of the input
//! for k²-long dot products. It sweeps the taps over a zero-bordered copy
//! of one `[h, w]` plane at a time instead, forward and backward, and sums
//! every element in the order the lowering did; the tests pin it bit for
//! bit against an im2col reference.
//!
//! Every loop here runs on the caller's thread: parallelism lives above
//! the layer, at whole cells, audits and SISA shards.

use rand::rngs::StdRng;

use reveil_tensor::conv::{col2im_batch_into, im2col_batch_into, ConvGeometry};
use reveil_tensor::{ops, rng, Tensor};

use crate::layers::{backward_before_forward, check_backward_shape, expect_nchw, resize_buffer};
use crate::{Layer, Mode, NnError, Param};

/// Reusable workspace for the batched convolution lowering.
///
/// One instance lives inside each [`Conv2d`]; every buffer is
/// resized in place (growing at most once per shape change) and then reused
/// verbatim by subsequent calls, which keeps the training loop free of
/// per-sample and per-batch allocations.
#[derive(Debug, Default)]
struct ConvScratch {
    /// `[c*kh*kw, n*oh*ow]` column matrix of the last forward's input,
    /// which the weight gradient reads.
    cols: Tensor,
    /// `[oc, n*oh*ow]` matmul output (forward) or gathered output gradient
    /// (backward).
    gemm: Tensor,
    /// `[c*kh*kw, n*oh*ow]` column-space gradient (backward).
    dcols: Tensor,
}

impl ConvScratch {
    /// Total capacity of the scratch buffers in elements (used by the
    /// reuse regression tests).
    fn capacity(&self) -> usize {
        self.cols.capacity() + self.gemm.capacity() + self.dcols.capacity()
    }
}

/// Gathers an `[n, c, oh, ow]` output gradient into the channel-major
/// `[c, n*oh*ow]` layout the lowered matmuls read.
fn gather_channel_major(go: &[f32], n: usize, c: usize, ohw: usize, gy: &mut [f32]) {
    for ch in 0..c {
        for s in 0..n {
            gy[(ch * n + s) * ohw..][..ohw].copy_from_slice(&go[(s * c + ch) * ohw..][..ohw]);
        }
    }
}

/// Standard 2-D convolution with square kernels and symmetric padding.
#[derive(Debug)]
pub struct Conv2d {
    /// Kernel matrix `[out_channels, in_channels * kh * kw]`.
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    geom: ConvGeometry,
    /// `[n, c, h, w]` of the last forward's input. Whenever it is set,
    /// `scratch.cols` holds the im2col of that same input: every forward
    /// writes both, no backward writes either, and `release_buffers`
    /// clears both.
    input_dims: Option<[usize; 4]>,
    scratch: ConvScratch,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-uniform initialisation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero channel counts and
    /// propagates invalid kernel geometry.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        init_rng: &mut StdRng,
    ) -> Result<Self, NnError> {
        if in_channels == 0 || out_channels == 0 {
            return Err(NnError::InvalidConfig {
                what: "Conv2d",
                message: format!("channels must be positive, got {in_channels}->{out_channels}"),
            });
        }
        let geom = ConvGeometry::new(kernel, kernel, stride, padding)?;
        let fan_in = in_channels * kernel * kernel;
        let bound = (6.0 / fan_in as f32).sqrt();
        let mut weight = Tensor::zeros(&[out_channels, fan_in]);
        rng::fill_uniform(&mut weight, -bound, bound, init_rng);
        Ok(Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            geom,
            input_dims: None,
            scratch: ConvScratch::default(),
        })
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn check_input(&self, input: &Tensor) -> (usize, usize, usize, usize, usize) {
        let (n, c, h, w) = expect_nchw("Conv2d", input);
        assert_eq!(
            c, self.in_channels,
            "Conv2d configured for {} input channels, got {c}",
            self.in_channels
        );
        let (oh, ow) = self
            .geom
            .output_size(h, w)
            .unwrap_or_else(|e| panic!("{e}"));
        (n, h, w, oh, ow)
    }

    /// Checks `grad_output` against the last forward pass and gathers it
    /// into the channel-major `[oc, n*oh*ow]` rows of `scratch.gemm` that
    /// every backward method reads. Returns the last forward input's
    /// `[n, c, h, w]`.
    fn gather_grad_output(&mut self, grad_output: &Tensor) -> [usize; 4] {
        let Some([n, c, h, w]) = self.input_dims else {
            backward_before_forward("Conv2d")
        };
        let (oh, ow) = self
            .geom
            .output_size(h, w)
            .unwrap_or_else(|e| panic!("{e}"));
        let oc = self.out_channels;
        check_backward_shape("Conv2d", &[n, oc, oh, ow], grad_output.shape());
        resize_buffer(&mut self.scratch.gemm, &[oc, n * oh * ow]);
        gather_channel_major(
            grad_output.data(),
            n,
            oc,
            oh * ow,
            self.scratch.gemm.data_mut(),
        );
        [n, c, h, w]
    }

    /// The parameter gradients `backward_into` and `backward_params_into`
    /// accumulate, from the gathered rows and the forward's column matrix.
    fn param_grads(&mut self) {
        let oc = self.out_channels;
        let n_ohw = self.scratch.gemm.shape()[1];

        // dW += gy · colsᵀ: one matmul for the whole batch, accumulated
        // straight into the parameter gradient by the fused GEMM epilogue
        // (no per-call weight-gradient scratch, no separate axpy pass).
        debug_assert_eq!(
            self.weight.grad().shape(),
            &[oc, self.in_channels * self.geom.kh * self.geom.kw]
        );
        ops::matmul_nt_acc_into(
            &self.scratch.gemm,
            &self.scratch.cols,
            1.0,
            self.weight.grad_mut(),
        )
        .unwrap_or_else(|e| panic!("{e}"));

        // db += row sums of gy.
        let gy = self.scratch.gemm.data();
        let db = self.bias.grad_mut().data_mut();
        for ch in 0..oc {
            db[ch] += gy[ch * n_ohw..(ch + 1) * n_ohw].iter().sum::<f32>();
        }
    }

    /// The input gradient both input-gradient methods write, from the
    /// gathered rows: `dcols = Wᵀ · gy`, scattered back to input space
    /// batched.
    fn input_grad_into(&mut self, [n, c, h, w]: [usize; 4], grad_input: &mut Tensor) {
        let n_ohw = self.scratch.gemm.shape()[1];
        resize_buffer(
            &mut self.scratch.dcols,
            &[c * self.geom.kh * self.geom.kw, n_ohw],
        );
        ops::matmul_tn_into(
            self.weight.value(),
            &self.scratch.gemm,
            &mut self.scratch.dcols,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        col2im_batch_into(&self.scratch.dcols, n, c, h, w, self.geom, grad_input)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

impl Layer for Conv2d {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, out: &mut Tensor) {
        let (n, h, w, oh, ow) = self.check_input(input);
        let oc = self.out_channels;
        let ohw = oh * ow;

        // One batched lowering + one packed matmul for the whole batch. The
        // backward reads these columns again.
        im2col_batch_into(input, self.geom, &mut self.scratch.cols)
            .unwrap_or_else(|e| panic!("{e}"));
        self.input_dims = Some([n, self.in_channels, h, w]);
        resize_buffer(&mut self.scratch.gemm, &[oc, n * ohw]);
        ops::matmul_into(
            self.weight.value(),
            &self.scratch.cols,
            &mut self.scratch.gemm,
        )
        .unwrap_or_else(|e| panic!("{e}"));

        // Scatter [oc, n*ohw] into [n, oc, oh, ow] and add the bias.
        resize_buffer(out, &[n, oc, oh, ow]);
        let gemm = self.scratch.gemm.data();
        let bias = self.bias.value().data();
        for (sample, chunk) in out.data_mut().chunks_exact_mut(oc * ohw).enumerate() {
            for ch in 0..oc {
                let src = &gemm[ch * n * ohw + sample * ohw..][..ohw];
                let dst = &mut chunk[ch * ohw..(ch + 1) * ohw];
                let b = bias[ch];
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o = v + b;
                }
            }
        }
    }

    fn backward_into(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) {
        let dims = self.gather_grad_output(grad_output);
        self.param_grads();
        self.input_grad_into(dims, grad_input);
    }

    fn backward_input_into(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) {
        let dims = self.gather_grad_output(grad_output);
        self.input_grad_into(dims, grad_input);
    }

    fn backward_params_into(&mut self, grad_output: &Tensor, _scratch: &mut Tensor) {
        self.gather_grad_output(grad_output);
        self.param_grads();
    }

    fn buffer_capacity(&self) -> usize {
        self.scratch.capacity()
    }

    fn release_buffers(&mut self) {
        self.scratch = ConvScratch::default();
        self.input_dims = None;
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

/// Geometry of one depthwise plane and of its zero-bordered copy.
///
/// The copy of the padded `[h + 2p, w + 2p]` plane is split into
/// `stride × stride` phases of `qh × qw` elements: phase `(qy, qx)` holds
/// the padded rows `qy, qy + s, …` and columns `qx, qx + s, …`. Tap `t`
/// of output `(oy, ox)` then lives at `offset[t] + oy·qw + ox` at every
/// stride, so each tap sweeps contiguous memory. At stride 1 there is one
/// phase, the plain padded plane.
#[derive(Debug, Clone, Copy)]
struct PlaneDims {
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    qh: usize,
    qw: usize,
    stride: usize,
    padding: usize,
}

impl PlaneDims {
    fn new(geom: ConvGeometry, h: usize, w: usize) -> Self {
        let (oh, ow) = geom.output_size(h, w).unwrap_or_else(|e| panic!("{e}"));
        let (s, p) = (geom.stride, geom.padding);
        Self {
            h,
            w,
            oh,
            ow,
            qh: (h + 2 * p).div_ceil(s),
            qw: (w + 2 * p).div_ceil(s),
            stride: s,
            padding: p,
        }
    }

    /// Elements of the phase-split padded plane.
    fn padded_len(self) -> usize {
        self.stride * self.stride * self.qh * self.qw
    }

    /// Offset of padded row `r`, column `c` in the phase-split plane.
    fn index(self, r: usize, c: usize) -> usize {
        let s = self.stride;
        ((r % s) * s + c % s) * self.qh * self.qw + (r / s) * self.qw + c / s
    }

    /// Writes the offset of every tap `t = ky·kw + kx` into `offsets`.
    fn tap_offsets(self, geom: ConvGeometry, offsets: &mut Vec<usize>) {
        offsets.clear();
        offsets.extend((0..geom.kh * geom.kw).map(|t| self.index(t / geom.kw, t % geom.kw)));
    }

    /// The interior runs of input row `iy` in the phase-split plane: where
    /// each run starts there and its first input column. A run takes
    /// every `stride`-th column of the row from there on.
    fn interior_runs(self, iy: usize) -> impl Iterator<Item = (usize, usize)> {
        let (s, p) = (self.stride, self.padding);
        (0..s.min(self.w)).map(move |ix| (self.index(iy + p, ix + p), ix))
    }
}

/// Copies one `[h, w]` plane into the interior of the zero-bordered,
/// phase-split `padded` buffer. The border is left as it is: zero.
fn pad_plane(plane: &[f32], dims: PlaneDims, padded: &mut [f32]) {
    for (iy, row) in plane.chunks_exact(dims.w).enumerate() {
        for (at, ix) in dims.interior_runs(iy) {
            if dims.stride == 1 {
                padded[at..][..dims.w].copy_from_slice(row);
            } else {
                for (d, run) in padded[at..].iter_mut().zip(row[ix..].chunks(dims.stride)) {
                    *d = run[0];
                }
            }
        }
    }
}

/// The inverse of [`pad_plane`]: copies the interior of the phase-split
/// `padded` buffer out to one `[h, w]` plane.
fn unpad_plane(padded: &[f32], dims: PlaneDims, plane: &mut [f32]) {
    for (iy, row) in plane.chunks_exact_mut(dims.w).enumerate() {
        for (at, ix) in dims.interior_runs(iy) {
            if dims.stride == 1 {
                row.copy_from_slice(&padded[at..][..dims.w]);
            } else {
                for (run, &v) in row[ix..].chunks_mut(dims.stride).zip(&padded[at..]) {
                    run[0] = v;
                }
            }
        }
    }
}

/// One plane's forward: every output starts at `bias` and adds `w[t]·x`
/// for the taps `t = 0..k²` in order. A tap on the zero border adds
/// `w[t]·0.0`, as the zero-filled im2col column did.
fn stencil_forward(
    padded: &[f32],
    dims: PlaneDims,
    offsets: &[usize],
    weight: &[f32],
    bias: f32,
    out: &mut [f32],
) {
    out.fill(bias);
    for (&wv, &off) in weight.iter().zip(offsets) {
        for (oy, row) in out.chunks_exact_mut(dims.ow).enumerate() {
            for (o, &x) in row.iter_mut().zip(&padded[off + oy * dims.qw..]) {
                *o += wv * x;
            }
        }
    }
}

/// Weight-gradient chains one sweep holds in registers.
const CHAIN_GROUP: usize = 9;

/// Advances one channel's gradient chains over one plane of that channel:
/// for every output position in `(oy, ox)` order, `chains[t] += x_t·g` for
/// each tap `t` and `chains[k²] += g`. Each chain stays the one sequential
/// sum over `(sample, oy, ox)` that the im2col lowering took as a row dot
/// product; the chains merely run side by side, [`CHAIN_GROUP`] taps and
/// the bias per sweep.
fn advance_param_chains(
    padded: &[f32],
    dims: PlaneDims,
    offsets: &[usize],
    grad: &[f32],
    chains: &mut [f32],
) {
    let (taps, bias) = chains.split_at_mut(offsets.len());
    let mut spare = 0.0;
    let groups = taps
        .chunks_mut(CHAIN_GROUP)
        .zip(offsets.chunks(CHAIN_GROUP));
    for (i, (taps, offsets)) in groups.enumerate() {
        // A short group pads with chains on offset 0 that are dropped.
        let (mut acc, mut offs) = ([0.0; CHAIN_GROUP], [0; CHAIN_GROUP]);
        acc[..taps.len()].copy_from_slice(taps);
        offs[..offsets.len()].copy_from_slice(offsets);
        let bias = if i == 0 { &mut bias[0] } else { &mut spare };
        sweep_chains(padded, dims, &offs, grad, &mut acc, bias);
        taps.copy_from_slice(&acc[..taps.len()]);
    }
}

/// One sweep of [`advance_param_chains`] over one group of taps.
fn sweep_chains(
    padded: &[f32],
    dims: PlaneDims,
    offsets: &[usize; CHAIN_GROUP],
    grad: &[f32],
    taps: &mut [f32; CHAIN_GROUP],
    bias: &mut f32,
) {
    for (oy, g_row) in grad.chunks_exact(dims.ow).enumerate() {
        // Each tap's inputs along this output row are contiguous.
        let rows = offsets.map(|off| &padded[off + oy * dims.qw..][..dims.ow]);
        for (ox, &g) in g_row.iter().enumerate() {
            for (acc, row) in taps.iter_mut().zip(&rows) {
                *acc += row[ox] * g;
            }
            *bias += g;
        }
    }
}

/// One plane's input gradient. Each element of the padded gradient starts
/// at 0.0 and adds `w[t]·g` tap by tap, in the order col2im scattered the
/// im2col rows; taps that land on the border are dropped with it.
fn stencil_input_grad(
    grad: &[f32],
    dims: PlaneDims,
    offsets: &[usize],
    weight: &[f32],
    padded_grad: &mut [f32],
    grad_input: &mut [f32],
) {
    padded_grad.fill(0.0);
    for (&wv, &off) in weight.iter().zip(offsets) {
        for (oy, g_row) in grad.chunks_exact(dims.ow).enumerate() {
            for (d, &g) in padded_grad[off + oy * dims.qw..].iter_mut().zip(g_row) {
                *d += wv * g;
            }
        }
    }
    unpad_plane(padded_grad, dims, grad_input);
}

/// Depthwise 2-D convolution: one spatial filter per channel (MobileNetV2 /
/// EfficientNet building block).
///
/// It does not lower through im2col: each `[h, w]` plane is copied into a
/// zero-bordered buffer and the k² taps are swept over it directly, in
/// the forward pass and in both backward passes. Every output and
/// gradient element is summed in the order the im2col lowering used, so
/// the results are the same bit for bit.
#[derive(Debug)]
pub struct DepthwiseConv2d {
    /// Kernel matrix `[channels, kh * kw]`.
    weight: Param,
    bias: Param,
    channels: usize,
    geom: ConvGeometry,
    /// Saved copy of the forward input, reused across calls.
    saved_input: Tensor,
    ready: bool,
    /// Zero-bordered, phase-split copy of the plane being swept.
    padded: Vec<f32>,
    /// That plane's input gradient, in the same layout.
    padded_grad: Vec<f32>,
    /// Where each tap lives in that layout, relative to its output.
    offsets: Vec<usize>,
    /// One channel's k² weight-gradient chains and its bias chain.
    chains: Vec<f32>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for a zero channel count and
    /// propagates invalid kernel geometry.
    pub fn new(
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        init_rng: &mut StdRng,
    ) -> Result<Self, NnError> {
        if channels == 0 {
            return Err(NnError::InvalidConfig {
                what: "DepthwiseConv2d",
                message: "channels must be positive".to_string(),
            });
        }
        let geom = ConvGeometry::new(kernel, kernel, stride, padding)?;
        let fan_in = kernel * kernel;
        let bound = (6.0 / fan_in as f32).sqrt();
        let mut weight = Tensor::zeros(&[channels, fan_in]);
        rng::fill_uniform(&mut weight, -bound, bound, init_rng);
        Ok(Self {
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[channels])),
            channels,
            geom,
            saved_input: Tensor::default(),
            ready: false,
            padded: Vec::new(),
            padded_grad: Vec::new(),
            offsets: Vec::new(),
            chains: Vec::new(),
        })
    }

    /// Checks `grad_output` against the last forward pass, sizes the
    /// padded gradient plane and lays out the taps. Returns the saved
    /// input's `n`, `c` and plane geometry.
    fn start_backward(&mut self, grad_output: &Tensor) -> (usize, usize, PlaneDims) {
        if !self.ready {
            backward_before_forward("DepthwiseConv2d");
        }
        let &[n, c, h, w] = self.saved_input.shape() else {
            unreachable!("saved input is always [n, c, h, w]")
        };
        let dims = PlaneDims::new(self.geom, h, w);
        check_backward_shape(
            "DepthwiseConv2d",
            &[n, c, dims.oh, dims.ow],
            grad_output.shape(),
        );
        self.padded_grad.resize(dims.padded_len(), 0.0);
        dims.tap_offsets(self.geom, &mut self.offsets);
        (n, c, dims)
    }
}

impl Layer for DepthwiseConv2d {
    fn forward_into(&mut self, input: &Tensor, _mode: Mode, out: &mut Tensor) {
        let (n, c, h, w) = expect_nchw("DepthwiseConv2d", input);
        assert_eq!(
            c, self.channels,
            "DepthwiseConv2d::forward configured for {} channels, got {c}",
            self.channels
        );
        let dims = PlaneDims::new(self.geom, h, w);
        resize_buffer(&mut self.saved_input, input.shape());
        self.saved_input.data_mut().copy_from_slice(input.data());
        self.ready = true;
        let k2 = self.geom.kh * self.geom.kw;

        // The border is zeroed once here; every plane rewrites only the
        // interior.
        self.padded.clear();
        self.padded.resize(dims.padded_len(), 0.0);
        dims.tap_offsets(self.geom, &mut self.offsets);
        let weight = self.weight.value().data();
        let bias = self.bias.value().data();
        resize_buffer(out, &[n, c, dims.oh, dims.ow]);
        let planes = input.data().chunks_exact(h * w);
        let out_planes = out.data_mut().chunks_exact_mut(dims.oh * dims.ow);
        for ((plane, out_plane), ch) in planes.zip(out_planes).zip((0..c).cycle()) {
            pad_plane(plane, dims, &mut self.padded);
            stencil_forward(
                &self.padded,
                dims,
                &self.offsets,
                &weight[ch * k2..][..k2],
                bias[ch],
                out_plane,
            );
        }
    }

    fn backward_into(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) {
        let (n, c, dims) = self.start_backward(grad_output);
        let k2 = self.geom.kh * self.geom.kw;
        let (hw, ohw) = (dims.h * dims.w, dims.oh * dims.ow);
        // The weight- and bias-gradient sums start where `Iterator::sum`
        // starts, so they match the row dot products of the im2col
        // lowering bit for bit.
        let neutral: f32 = std::iter::empty::<f32>().sum();
        self.chains.resize(k2 + 1, neutral);
        self.padded.clear();
        self.padded.resize(dims.padded_len(), 0.0);
        resize_buffer(grad_input, self.saved_input.shape());
        let (x, go) = (self.saved_input.data(), grad_output.data());
        // Channel-outer, so each channel's chains run over (sample, oy, ox)
        // in order.
        for ch in 0..c {
            self.chains.fill(neutral);
            let w_ch = &self.weight.value().data()[ch * k2..][..k2];
            for s in 0..n {
                let plane = (s * c + ch) * hw;
                let grad = &go[(s * c + ch) * ohw..][..ohw];
                pad_plane(&x[plane..][..hw], dims, &mut self.padded);
                advance_param_chains(&self.padded, dims, &self.offsets, grad, &mut self.chains);
                stencil_input_grad(
                    grad,
                    dims,
                    &self.offsets,
                    w_ch,
                    &mut self.padded_grad,
                    &mut grad_input.data_mut()[plane..][..hw],
                );
            }
            let dw = &mut self.weight.grad_mut().data_mut()[ch * k2..][..k2];
            for (d, &sum) in dw.iter_mut().zip(&self.chains) {
                *d += sum;
            }
            self.bias.grad_mut().data_mut()[ch] += self.chains[k2];
        }
    }

    fn backward_input_into(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) {
        let (_, c, dims) = self.start_backward(grad_output);
        let k2 = self.geom.kh * self.geom.kw;
        resize_buffer(grad_input, self.saved_input.shape());
        let weight = self.weight.value().data();
        let grads = grad_output.data().chunks_exact(dims.oh * dims.ow);
        let planes = grad_input.data_mut().chunks_exact_mut(dims.h * dims.w);
        for ((grad, plane), ch) in grads.zip(planes).zip((0..c).cycle()) {
            stencil_input_grad(
                grad,
                dims,
                &self.offsets,
                &weight[ch * k2..][..k2],
                &mut self.padded_grad,
                plane,
            );
        }
    }

    fn buffer_capacity(&self) -> usize {
        self.saved_input.capacity()
            + self.padded.capacity()
            + self.padded_grad.capacity()
            + self.offsets.capacity()
            + self.chains.capacity()
    }

    fn release_buffers(&mut self) {
        self.saved_input = Tensor::default();
        self.padded = Vec::new();
        self.padded_grad = Vec::new();
        self.offsets = Vec::new();
        self.chains = Vec::new();
        self.ready = false;
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn name(&self) -> &'static str {
        "depthwise_conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    fn seeded() -> StdRng {
        rng::rng_from_seed(7)
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let mut r = seeded();
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut r).unwrap();
        conv.weight.value_mut().data_mut()[0] = 1.0;
        let x = Tensor::from_fn(&[2, 1, 3, 3], |i| i as f32);
        let y = conv.forward(&x, Mode::Train);
        assert_eq!(y.shape(), x.shape());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_output_shape_with_stride_and_padding() {
        let mut r = seeded();
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, &mut r).unwrap();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 8, 4, 4]);
    }

    #[test]
    fn conv_matches_hand_computed_example() {
        // 1 channel, 2x2 kernel of ones, no padding: output = window sums.
        let mut r = seeded();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut r).unwrap();
        conv.weight
            .value_mut()
            .data_mut()
            .copy_from_slice(&[1.0; 4]);
        conv.bias.value_mut().data_mut()[0] = 0.5;
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[10.5]);
    }

    /// Naive per-sample, per-tap convolution used to validate the batched
    /// im2col + packed-matmul path.
    fn naive_conv_forward(
        conv_weight: &Tensor,
        bias: &Tensor,
        x: &Tensor,
        geom: ConvGeometry,
    ) -> Tensor {
        let &[n, c, h, w] = x.shape() else {
            panic!("rank-4 input")
        };
        let (oh, ow) = geom.output_size(h, w).unwrap();
        let oc = conv_weight.shape()[0];
        let k2 = geom.kh * geom.kw;
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        for s in 0..n {
            for o in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.data()[o];
                        for ch in 0..c {
                            for ky in 0..geom.kh {
                                for kx in 0..geom.kw {
                                    let iy =
                                        (oy * geom.stride + ky) as isize - geom.padding as isize;
                                    let ix =
                                        (ox * geom.stride + kx) as isize - geom.padding as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += conv_weight.data()
                                        [o * c * k2 + (ch * geom.kh + ky) * geom.kw + kx]
                                        * x.at(&[s, ch, iy as usize, ix as usize]);
                                }
                            }
                        }
                        out.set(&[s, o, oy, ox], acc);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn batched_conv_matches_naive_reference() {
        // Odd, tile-unaligned shapes: 5 samples, 3->7 channels, 5x7 input.
        let mut r = seeded();
        let mut conv = Conv2d::new(3, 7, 3, 2, 1, &mut r).unwrap();
        let x = Tensor::from_fn(&[5, 3, 5, 7], |i| ((i * 23 % 19) as f32 - 9.0) * 0.1);
        let fast = conv.forward(&x, Mode::Train);
        let slow = naive_conv_forward(conv.weight.value(), conv.bias.value(), &x, conv.geom);
        assert_eq!(fast.shape(), slow.shape());
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn conv_scratch_reuse_is_bit_identical_and_allocation_free() {
        let mut r = seeded();
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut r).unwrap();
        let x = Tensor::from_fn(&[3, 2, 6, 6], |i| ((i * 13 % 11) as f32 - 5.0) * 0.1);
        let g = Tensor::from_fn(&[3, 4, 6, 6], |i| ((i * 7 % 5) as f32 - 2.0) * 0.1);

        // Warm up the scratch buffers once.
        let first_y = conv.forward(&x, Mode::Train);
        let first_dx = conv.backward(&g);
        let warmed_capacity = conv.scratch.capacity();

        // Every subsequent call must reuse the same allocations and
        // reproduce the exact same bits.
        for _ in 0..3 {
            let y = conv.forward(&x, Mode::Train);
            let dx = conv.backward(&g);
            assert_eq!(y, first_y, "forward must be bit-identical across reuse");
            assert_eq!(dx, first_dx, "backward must be bit-identical across reuse");
            assert_eq!(
                conv.scratch.capacity(),
                warmed_capacity,
                "scratch must not reallocate once warmed"
            );
        }
    }

    #[test]
    fn conv_backward_reads_the_columns_of_the_last_forward() {
        let x2 = Tensor::from_fn(&[3, 2, 6, 5], |i| ((i * 13 % 11) as f32 - 5.0) * 0.1);
        let g = Tensor::from_fn(&[3, 4, 3, 3], |i| ((i * 7 % 5) as f32 - 2.0) * 0.1);
        // An earlier forward of other values, at the same shape and at a
        // larger batch.
        for n1 in [3, 5] {
            let x1 = Tensor::from_fn(&[n1, 2, 6, 5], |i| ((i * 29 % 23) as f32 - 11.0) * 0.1);
            let mut fresh = Conv2d::new(2, 4, 3, 2, 1, &mut seeded()).unwrap();
            let mut reused = Conv2d::new(2, 4, 3, 2, 1, &mut seeded()).unwrap();
            fresh.forward(&x2, Mode::Train);
            let want_dx = fresh.backward(&g);
            reused.forward(&x1, Mode::Train);
            reused.forward(&x2, Mode::Train);
            let dx = reused.backward(&g);
            assert_eq!(bits(&dx), bits(&want_dx), "batch {n1}: dx");
            assert_eq!(
                bits(reused.weight.grad()),
                bits(fresh.weight.grad()),
                "batch {n1}: dW"
            );
            assert_eq!(
                bits(reused.bias.grad()),
                bits(fresh.bias.grad()),
                "batch {n1}: db"
            );
        }
    }

    #[test]
    fn depthwise_scratch_reuse_is_bit_identical_and_allocation_free() {
        let mut r = seeded();
        let mut dw = DepthwiseConv2d::new(3, 3, 1, 1, &mut r).unwrap();
        let x = Tensor::from_fn(&[2, 3, 5, 5], |i| ((i * 17 % 13) as f32 - 6.0) * 0.1);
        let g = Tensor::from_fn(&[2, 3, 5, 5], |i| ((i * 11 % 7) as f32 - 3.0) * 0.1);

        let first_y = dw.forward(&x, Mode::Train);
        let first_dx = dw.backward(&g);
        let warmed_capacity = dw.buffer_capacity();
        for _ in 0..3 {
            assert_eq!(dw.forward(&x, Mode::Train), first_y);
            assert_eq!(dw.backward(&g), first_dx);
            assert_eq!(dw.buffer_capacity(), warmed_capacity);
        }
    }

    #[test]
    fn conv_input_gradient_matches_finite_difference() {
        let mut r = seeded();
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut r).unwrap();
        let x = Tensor::from_fn(&[2, 2, 4, 4], |i| ((i * 23 % 17) as f32 - 8.0) * 0.1);
        gradcheck::check_input_gradient(&mut conv, &x, Mode::Train, 2e-2);
    }

    #[test]
    fn conv_param_gradients_match_finite_difference() {
        let mut r = seeded();
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, &mut r).unwrap();
        let x = Tensor::from_fn(&[2, 2, 5, 5], |i| ((i * 31 % 19) as f32 - 9.0) * 0.1);
        gradcheck::check_param_gradients(&mut conv, &x, Mode::Train, 2e-2);
    }

    #[test]
    fn conv_rejects_bad_config() {
        let mut r = seeded();
        assert!(Conv2d::new(0, 4, 3, 1, 1, &mut r).is_err());
        assert!(Conv2d::new(4, 0, 3, 1, 1, &mut r).is_err());
        assert!(Conv2d::new(4, 4, 0, 1, 1, &mut r).is_err());
    }

    #[test]
    fn depthwise_applies_independent_filters() {
        let mut r = seeded();
        let mut dw = DepthwiseConv2d::new(2, 1, 1, 0, &mut r).unwrap();
        dw.weight
            .value_mut()
            .data_mut()
            .copy_from_slice(&[2.0, 3.0]);
        let x = Tensor::ones(&[1, 2, 2, 2]);
        let y = dw.forward(&x, Mode::Train);
        assert_eq!(&y.data()[..4], &[2.0; 4]);
        assert_eq!(&y.data()[4..], &[3.0; 4]);
    }

    #[test]
    fn depthwise_input_gradient_matches_finite_difference() {
        let mut r = seeded();
        let mut dw = DepthwiseConv2d::new(3, 3, 1, 1, &mut r).unwrap();
        let x = Tensor::from_fn(&[2, 3, 4, 4], |i| ((i * 29 % 23) as f32 - 11.0) * 0.1);
        gradcheck::check_input_gradient(&mut dw, &x, Mode::Train, 2e-2);
    }

    #[test]
    fn depthwise_param_gradients_match_finite_difference() {
        let mut r = seeded();
        let mut dw = DepthwiseConv2d::new(2, 3, 2, 1, &mut r).unwrap();
        let x = Tensor::from_fn(&[2, 2, 5, 5], |i| ((i * 37 % 29) as f32 - 14.0) * 0.1);
        gradcheck::check_param_gradients(&mut dw, &x, Mode::Train, 2e-2);
    }

    /// The im2col lowering `DepthwiseConv2d` used to run, kept as the
    /// bit-exact reference of its stencil: im2col plus the tap loop.
    fn im2col_depthwise_forward(dw: &DepthwiseConv2d, x: &Tensor) -> Tensor {
        let &[n, c, h, w] = x.shape() else {
            panic!("rank-4 input")
        };
        let (oh, ow) = dw.geom.output_size(h, w).unwrap();
        let (k2, ohw) = (dw.geom.kh * dw.geom.kw, oh * ow);
        let mut cols = Tensor::default();
        im2col_batch_into(x, dw.geom, &mut cols).unwrap();
        let (weight, bias) = (dw.weight.value().data(), dw.bias.value().data());
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        for (sample, chunk) in out.data_mut().chunks_exact_mut(c * ohw).enumerate() {
            for ch in 0..c {
                let dst = &mut chunk[ch * ohw..(ch + 1) * ohw];
                dst.fill(bias[ch]);
                for t in 0..k2 {
                    let wv = weight[ch * k2 + t];
                    let src = &cols.data()[(ch * k2 + t) * n * ohw + sample * ohw..][..ohw];
                    for (o, &v) in dst.iter_mut().zip(src) {
                        *o += wv * v;
                    }
                }
            }
        }
        out
    }

    /// The reference backward: the input gradient through `dcols` plus
    /// `col2im_batch_into`, and the weight and bias gradients as row dot
    /// products, added onto the layer's current gradients. Returns
    /// `(dx, dW, db)`.
    fn im2col_depthwise_backward(
        dw: &DepthwiseConv2d,
        x: &Tensor,
        grad_output: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let &[n, c, h, w] = x.shape() else {
            panic!("rank-4 input")
        };
        let (oh, ow) = dw.geom.output_size(h, w).unwrap();
        let (k2, n_ohw) = (dw.geom.kh * dw.geom.kw, n * oh * ow);
        let mut gy = vec![0.0; c * n_ohw];
        gather_channel_major(grad_output.data(), n, c, oh * ow, &mut gy);
        let mut cols = Tensor::default();
        im2col_batch_into(x, dw.geom, &mut cols).unwrap();
        let (mut dweight, mut dbias) = (dw.weight.grad().clone(), dw.bias.grad().clone());
        for ch in 0..c {
            let g = &gy[ch * n_ohw..(ch + 1) * n_ohw];
            for t in 0..k2 {
                let row = &cols.data()[(ch * k2 + t) * n_ohw..][..n_ohw];
                dweight.data_mut()[ch * k2 + t] +=
                    row.iter().zip(g).map(|(&a, &b)| a * b).sum::<f32>();
            }
            dbias.data_mut()[ch] += g.iter().sum::<f32>();
        }
        let mut dcols = Tensor::zeros(&[c * k2, n_ohw]);
        for (row, &wv) in dw.weight.value().data().iter().enumerate() {
            let g = &gy[(row / k2) * n_ohw..][..n_ohw];
            for (o, &v) in dcols.data_mut()[row * n_ohw..][..n_ohw].iter_mut().zip(g) {
                *o = wv * v;
            }
        }
        let mut dx = Tensor::default();
        col2im_batch_into(&dcols, n, c, h, w, dw.geom, &mut dx).unwrap();
        (dx, dweight, dbias)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn depthwise_stencil_matches_im2col_reference_bit_for_bit() {
        // Odd batch, odd width; at height 4 the 5x5 kernel without padding
        // is rejected, the other 24 geometries run.
        let (n, c, h, w) = (3, 2, 4, 7);
        let x = Tensor::from_fn(&[n, c, h, w], |i| ((i * 29 % 23) as f32 - 11.0) * 0.1);
        let mut tested = 0;
        for kernel in [1, 3, 5] {
            for stride in [1, 2, 3] {
                for padding in [0, 1, 2] {
                    let geom = ConvGeometry::new(kernel, kernel, stride, padding).unwrap();
                    let Ok((oh, ow)) = geom.output_size(h, w) else {
                        continue;
                    };
                    let case = format!("k{kernel} s{stride} p{padding}");
                    let mut r = seeded();
                    let mut dw = DepthwiseConv2d::new(c, kernel, stride, padding, &mut r).unwrap();
                    rng::fill_uniform(dw.bias.value_mut(), -0.5, 0.5, &mut r);
                    // Non-zero gradients, so the `+=` onto them is checked.
                    dw.weight.grad_mut().data_mut().fill(0.25);
                    dw.bias.grad_mut().data_mut().fill(-0.125);
                    let g =
                        Tensor::from_fn(&[n, c, oh, ow], |i| ((i * 17 % 13) as f32 - 6.0) * 0.1);

                    let want_y = im2col_depthwise_forward(&dw, &x);
                    let (want_dx, want_dw, want_db) = im2col_depthwise_backward(&dw, &x, &g);
                    let (mut y, mut dx, mut dx_only) =
                        (Tensor::default(), Tensor::default(), Tensor::default());
                    dw.forward_into(&x, Mode::Train, &mut y);
                    dw.backward_into(&g, &mut dx);
                    dw.backward_input_into(&g, &mut dx_only);

                    assert_eq!(bits(&y), bits(&want_y), "{case}: forward");
                    assert_eq!(bits(&dx), bits(&want_dx), "{case}: dx");
                    assert_eq!(bits(dw.weight.grad()), bits(&want_dw), "{case}: dW");
                    assert_eq!(bits(dw.bias.grad()), bits(&want_db), "{case}: db");
                    assert_eq!(bits(&dx_only), bits(&want_dx), "{case}: input-only dx");
                    tested += 1;
                }
            }
        }
        assert_eq!(tested, 24);
    }

    #[test]
    fn depthwise_stride_halves_spatial_dims() {
        let mut r = seeded();
        let mut dw = DepthwiseConv2d::new(4, 3, 2, 1, &mut r).unwrap();
        let y = dw.forward(&Tensor::zeros(&[1, 4, 8, 8]), Mode::Train);
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
    }
}
