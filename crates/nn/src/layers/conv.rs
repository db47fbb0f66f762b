//! Standard and depthwise 2-D convolution layers.
//!
//! [`Conv2d`] lowers the whole mini-batch to one `[c*kh*kw, n*oh*ow]`
//! column matrix via [`reveil_tensor::conv::im2col_batch_into`] and runs a
//! single packed matmul per layer call. Its intermediate buffers live in a
//! per-layer `ConvScratch` that is reused across calls, so the forward
//! and backward hot loops perform no per-sample heap allocation. The
//! backward reads dW from the column matrix its forward left in the
//! scratch, so the layer keeps no copy of its input; an input-only
//! backward needs no column matrix at all, and a parameter-only backward
//! no column-space gradient.
//!
//! [`DepthwiseConv2d`] does not lower. Each of its filters sees one
//! channel, so a column matrix would hold k² shifted copies of the input
//! for k²-long dot products. It copies the planes of one channel, all
//! samples, into one zero-bordered stack instead, where every tap is one
//! contiguous run over all of them, and sums the taps over that stack in
//! chunks held in registers, forward and backward, in the order the
//! lowering did; the tests pin it bit for bit against an im2col
//! reference.
//!
//! Every loop here runs on the caller's thread: parallelism lives above
//! the layer, at whole cells, audits and SISA shards.

use rand::rngs::StdRng;

use reveil_tensor::conv::{col2im_batch_into, im2col_batch_into, ConvGeometry};
use reveil_tensor::ops::{self, Transpose};
use reveil_tensor::{rng, Tensor};

use crate::layers::{backward_before_forward, check_backward_shape, expect_nchw, resize_buffer};
use crate::{Backward, Layer, Mode, NnError, Param};

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
            Transpose::Neither,
            0.0,
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

    fn backward_into(&mut self, grad_output: &Tensor, grads: Backward, grad_input: &mut Tensor) {
        let Some([n, c, h, w]) = self.input_dims else {
            backward_before_forward("Conv2d")
        };
        let (oh, ow) = self
            .geom
            .output_size(h, w)
            .unwrap_or_else(|e| panic!("{e}"));
        let oc = self.out_channels;
        let n_ohw = n * oh * ow;
        check_backward_shape("Conv2d", &[n, oc, oh, ow], grad_output.shape());
        resize_buffer(&mut self.scratch.gemm, &[oc, n_ohw]);
        gather_channel_major(
            grad_output.data(),
            n,
            oc,
            oh * ow,
            self.scratch.gemm.data_mut(),
        );

        if grads.params() {
            // dW += gy · colsᵀ over the forward's column matrix: one
            // matmul for the whole batch, accumulated straight into the
            // parameter gradient by the fused GEMM epilogue (no per-call
            // weight-gradient scratch, no separate axpy pass).
            ops::matmul_into(
                &self.scratch.gemm,
                &self.scratch.cols,
                Transpose::B,
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
        if grads.input() {
            // dcols = Wᵀ · gy, scattered back to input space batched.
            resize_buffer(
                &mut self.scratch.dcols,
                &[c * self.geom.kh * self.geom.kw, n_ohw],
            );
            ops::matmul_into(
                self.weight.value(),
                &self.scratch.gemm,
                Transpose::A,
                0.0,
                &mut self.scratch.dcols,
            )
            .unwrap_or_else(|e| panic!("{e}"));
            col2im_batch_into(&self.scratch.dcols, n, c, h, w, self.geom, grad_input)
                .unwrap_or_else(|e| panic!("{e}"));
        }
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

/// Geometry of one depthwise channel's plane stack.
///
/// The `n` planes of one channel are copied, zero-bordered, into one
/// buffer. Each padded `[h + 2p, w + 2p]` plane is split into
/// `stride × stride` phases of `qh × qw` elements: phase `(qy, qx)` holds
/// the padded rows `qy, qy + s, …` and columns `qx, qx + s, …`. The
/// buffer is phase-major: phase by phase, the `n` planes' blocks of that
/// phase lie end to end. At stride 1 there is one phase, the plain padded
/// planes.
///
/// The sweeps lay outputs out the same way, `qw` to a row and `qh · qw`
/// to a plane, so output `(j, oy, ox)` sits at `j·qh·qw + oy·qw + ox` and
/// its tap `t` at `offset[t]` plus the same index, for every plane, row
/// and stride. One tap is then one contiguous run over all `n` planes.
/// The `qw - ow` columns and `qh - oh` rows past the outputs of each
/// plane ride along: the forward drops what it computes there, and the
/// output gradients hold 0.0 there.
#[derive(Debug, Clone, Copy)]
struct PlaneDims {
    n: usize,
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
    fn new(geom: ConvGeometry, n: usize, h: usize, w: usize) -> Self {
        let (oh, ow) = geom.output_size(h, w).unwrap_or_else(|e| panic!("{e}"));
        let (s, p) = (geom.stride, geom.padding);
        Self {
            n,
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

    /// Elements of one phase of one plane, and of one plane of outputs.
    fn block(self) -> usize {
        self.qh * self.qw
    }

    /// Elements of one phase of the stack: that phase of all `n` planes.
    fn phase_len(self) -> usize {
        self.n * self.block()
    }

    /// Elements of the phase-split stack of `n` padded planes.
    fn padded_len(self) -> usize {
        self.stride * self.stride * self.phase_len()
    }

    /// Length of one tap's sweep: through the last output of the last
    /// plane.
    fn sweep_len(self) -> usize {
        if self.n == 0 {
            return 0;
        }
        (self.n - 1) * self.block() + (self.oh - 1) * self.qw + self.ow
    }

    /// Offset of padded row `r`, column `c` of plane `j` in the stack.
    fn index(self, j: usize, r: usize, c: usize) -> usize {
        let s = self.stride;
        let phase = (r % s) * s + c % s;
        (phase * self.n + j) * self.block() + (r / s) * self.qw + c / s
    }

    /// Writes the offset of every tap `t = ky·kw + kx` into `offsets`.
    fn tap_offsets(self, geom: ConvGeometry, offsets: &mut Vec<usize>) {
        offsets.clear();
        offsets.extend((0..geom.kh * geom.kw).map(|t| self.index(0, t / geom.kw, t % geom.kw)));
    }

    /// The interior runs of input row `iy` of plane `j` in the stack:
    /// where each run starts there and its first input column. A run
    /// takes every `stride`-th column of the row from there on.
    fn interior_runs(self, j: usize, iy: usize) -> impl Iterator<Item = (usize, usize)> {
        let (s, p) = (self.stride, self.padding);
        (0..s.min(self.w)).map(move |ix| (self.index(j, iy + p, ix + p), ix))
    }
}

/// Splits `buf` into the two runs starting at `a` and at `b != a`.
fn two_runs(buf: &mut [f32], a: usize, b: usize) -> (&mut [f32], &mut [f32]) {
    if a < b {
        let (lo, hi) = buf.split_at_mut(b);
        (&mut lo[a..], hi)
    } else {
        let (lo, hi) = buf.split_at_mut(a);
        (hi, &mut lo[b..])
    }
}

/// Copies input row `iy` of plane `j` into the interior of the stack.
/// Strides 1 and 2, the ones the models run, read the row once, at
/// stride 2 pair by pair into its two column phases; larger strides copy
/// it run by run.
fn pad_row(row: &[f32], dims: PlaneDims, j: usize, iy: usize, padded: &mut [f32]) {
    let (r, p) = (iy + dims.padding, dims.padding);
    match dims.stride {
        1 => padded[dims.index(j, r, p)..][..dims.w].copy_from_slice(row),
        2 => {
            let (even, odd) = two_runs(padded, dims.index(j, r, p), dims.index(j, r, p + 1));
            let (even, odd) = (&mut even[..dims.w.div_ceil(2)], &mut odd[..dims.w / 2]);
            let mut pairs = row.chunks_exact(2);
            for ((e, o), pair) in even.iter_mut().zip(odd).zip(&mut pairs) {
                *e = pair[0];
                *o = pair[1];
            }
            if let ([.., e], [last]) = (even, pairs.remainder()) {
                *e = *last;
            }
        }
        s => {
            for (at, ix) in dims.interior_runs(j, iy) {
                for (d, &v) in padded[at..].iter_mut().zip(row[ix..].iter().step_by(s)) {
                    *d = v;
                }
            }
        }
    }
}

/// The inverse of [`pad_row`]: copies input row `iy` of plane `j` out of
/// the interior of the stack.
fn unpad_row(padded: &[f32], dims: PlaneDims, j: usize, iy: usize, row: &mut [f32]) {
    let (r, p) = (iy + dims.padding, dims.padding);
    match dims.stride {
        1 => row.copy_from_slice(&padded[dims.index(j, r, p)..][..dims.w]),
        2 => {
            let even = &padded[dims.index(j, r, p)..][..dims.w.div_ceil(2)];
            let odd = &padded[dims.index(j, r, p + 1)..][..dims.w / 2];
            let mut pairs = row.chunks_exact_mut(2);
            for ((pair, &e), &o) in (&mut pairs).zip(even).zip(odd) {
                pair[0] = e;
                pair[1] = o;
            }
            if let ([last], [.., e]) = (pairs.into_remainder(), even) {
                *last = *e;
            }
        }
        s => {
            for (at, ix) in dims.interior_runs(j, iy) {
                for (d, &v) in row[ix..].iter_mut().step_by(s).zip(&padded[at..]) {
                    *d = v;
                }
            }
        }
    }
}

/// Copies plane `ch` of every sample in the `[n, c, h, w]` batch `x` into
/// the interior of the zero-bordered, phase-split `padded` stack. The
/// border is left as it is: zero.
fn pad_planes(x: &[f32], c: usize, ch: usize, dims: PlaneDims, padded: &mut [f32]) {
    let hw = dims.h * dims.w;
    for j in 0..dims.n {
        let plane = &x[(j * c + ch) * hw..][..hw];
        for (iy, row) in plane.chunks_exact(dims.w).enumerate() {
            pad_row(row, dims, j, iy, padded);
        }
    }
}

/// The inverse of [`pad_planes`]: copies the interior of the phase-split
/// `padded` stack out to plane `ch` of every sample in `x`.
fn unpad_planes(padded: &[f32], dims: PlaneDims, c: usize, ch: usize, x: &mut [f32]) {
    let hw = dims.h * dims.w;
    for j in 0..dims.n {
        let plane = &mut x[(j * c + ch) * hw..][..hw];
        for (iy, row) in plane.chunks_exact_mut(dims.w).enumerate() {
            unpad_row(padded, dims, j, iy, row);
        }
    }
}

/// Outputs one register-blocked chunk sums at a time: 64 independent
/// sums (eight 8-wide vectors) keep enough adds of the k² taps in flight
/// to hide their latency: at 16, some audit and training shapes ran
/// slower than one pass per tap; at 64, every one ran faster.
const LANES: usize = 64;

/// `out[i] = init + w·src[at + i] + …` over the `(w, at)` of `taps`, in
/// order. Each chunk of [`LANES`] outputs holds its sums in registers
/// across all taps and is stored once.
fn tap_sums(
    out: &mut [f32],
    init: f32,
    src: &[f32],
    taps: impl Iterator<Item = (f32, usize)> + Clone,
) {
    let mut chunks = out.chunks_exact_mut(LANES);
    let mut start = 0;
    for chunk in &mut chunks {
        let mut acc = [init; LANES];
        for (w, at) in taps.clone() {
            for (a, &x) in acc.iter_mut().zip(&src[at + start..][..LANES]) {
                *a += w * x;
            }
        }
        chunk.copy_from_slice(&acc);
        start += LANES;
    }
    let rest = chunks.into_remainder();
    if rest.is_empty() {
        return;
    }
    let len = rest.len();
    rest.fill(init);
    for (w, at) in taps {
        for (a, &x) in rest.iter_mut().zip(&src[at + start..][..len]) {
            *a += w * x;
        }
    }
}

/// One channel's forward over the stack of its `n` planes: every output
/// starts at `bias` and adds `w[t]·x` for the taps `t = 0..k²` in order.
/// A tap on the zero border adds `w[t]·0.0`, as the zero-filled im2col
/// column did. `wide` receives the outputs in the stack's output layout.
fn stencil_forward(
    padded: &[f32],
    dims: PlaneDims,
    offsets: &[usize],
    weight: &[f32],
    bias: f32,
    wide: &mut [f32],
) {
    let taps = weight.iter().copied().zip(offsets.iter().copied());
    tap_sums(&mut wide[..dims.sweep_len()], bias, padded, taps);
}

/// Copies the outputs of one channel from the stack's output layout
/// `wide` to plane `ch` of every sample in the `[n, c, oh, ow]` batch
/// `out`.
fn gather_outputs(wide: &[f32], dims: PlaneDims, c: usize, ch: usize, out: &mut [f32]) {
    let ohw = dims.oh * dims.ow;
    for (j, src) in wide.chunks(dims.block()).enumerate() {
        let plane = &mut out[(j * c + ch) * ohw..][..ohw];
        for (row, src) in plane.chunks_exact_mut(dims.ow).zip(src.chunks(dims.qw)) {
            row.copy_from_slice(&src[..dims.ow]);
        }
    }
}

/// The inverse of [`gather_outputs`] for gradients: copies plane `ch` of
/// every sample in the `[n, c, oh, ow]` batch `grad` to the stack's output
/// layout `wide`, whose other positions keep their 0.0.
fn scatter_grads(grad: &[f32], dims: PlaneDims, c: usize, ch: usize, wide: &mut [f32]) {
    let ohw = dims.oh * dims.ow;
    for (j, dst) in wide.chunks_mut(dims.block()).enumerate() {
        let plane = &grad[(j * c + ch) * ohw..][..ohw];
        for (row, dst) in plane.chunks_exact(dims.ow).zip(dst.chunks_mut(dims.qw)) {
            dst[..dims.ow].copy_from_slice(row);
        }
    }
}

/// Weight-gradient chains one sweep holds in registers.
const CHAIN_GROUP: usize = 9;

/// Advances one channel's gradient chains over plane `j` of that
/// channel's stack: for every output position in `(oy, ox)` order,
/// `chains[t] += x_t·g` for each tap `t` and `chains[k²] += g`. Each chain
/// stays the one sequential sum over `(sample, oy, ox)` that the im2col
/// lowering took as a row dot product; the chains merely run side by
/// side, [`CHAIN_GROUP`] taps and the bias per sweep.
fn advance_param_chains(
    padded: &[f32],
    dims: PlaneDims,
    offsets: &[usize],
    j: usize,
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
        for (o, &off) in offs.iter_mut().zip(offsets) {
            *o = off + j * dims.block();
        }
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

/// One channel's input gradient over the stack of its `n` planes. Each
/// element of the padded gradient starts at 0.0 and adds `w[t]·g` for the
/// taps `t` of its phase, in order, which is the order col2im scattered
/// the im2col rows; the border is dropped afterwards. `wide` holds the
/// output gradients in the stack's output layout behind `margin` zeros,
/// `margin` being the largest tap offset within a phase, so element `q`
/// of the stack reads what tap `t` sent it at `margin + q - offset[t]`.
/// Where no output sent it anything, that read is 0.0, past the outputs
/// or in the margin, and with finite weights the ±0.0 it adds leaves the
/// sum as it was: a sum that starts at +0.0 never becomes −0.0.
fn stencil_input_grad(
    wide: &[f32],
    margin: usize,
    dims: PlaneDims,
    offsets: &[usize],
    weight: &[f32],
    padded_grad: &mut [f32],
) {
    let phase_len = dims.phase_len().max(1);
    for (phase, out) in padded_grad.chunks_exact_mut(phase_len).enumerate() {
        let base = phase * phase_len;
        let taps = weight.iter().copied().zip(offsets.iter().copied());
        let taps = taps
            .filter(move |&(_, off)| off / phase_len == phase)
            .map(move |(w, off)| (w, margin + base - off));
        tap_sums(out, 0.0, wide, taps);
    }
}

/// Depthwise 2-D convolution: one spatial filter per channel (MobileNetV2 /
/// EfficientNet building block).
///
/// It does not lower through im2col: channel by channel, the `n` planes
/// of that channel are copied into one zero-bordered stack, over which
/// each of the k² taps is one contiguous run, in the forward pass and for
/// both gradients of the backward. Every output and gradient element is
/// summed in the order the im2col lowering used, so the results are the
/// same bit for bit.
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
    /// Zero-bordered, phase-split stack of the channel being swept.
    padded: Vec<f32>,
    /// That stack's input gradient, in the same layout.
    padded_grad: Vec<f32>,
    /// One channel's outputs (forward) or output gradients (backward,
    /// behind a zero margin) in the stack's output layout.
    wide: Vec<f32>,
    /// Where each tap lives in the stack, relative to its output.
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
            wide: Vec::new(),
            offsets: Vec::new(),
            chains: Vec::new(),
        })
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
        let dims = PlaneDims::new(self.geom, n, h, w);
        resize_buffer(&mut self.saved_input, input.shape());
        self.saved_input.data_mut().copy_from_slice(input.data());
        self.ready = true;
        let k2 = self.geom.kh * self.geom.kw;

        // The border is zeroed once here; every channel rewrites only the
        // interior.
        self.padded.clear();
        self.padded.resize(dims.padded_len(), 0.0);
        self.wide.resize(dims.phase_len(), 0.0);
        dims.tap_offsets(self.geom, &mut self.offsets);
        let weight = self.weight.value().data();
        let bias = self.bias.value().data();
        resize_buffer(out, &[n, c, dims.oh, dims.ow]);
        for ch in 0..c {
            pad_planes(input.data(), c, ch, dims, &mut self.padded);
            stencil_forward(
                &self.padded,
                dims,
                &self.offsets,
                &weight[ch * k2..][..k2],
                bias[ch],
                &mut self.wide,
            );
            gather_outputs(&self.wide, dims, c, ch, out.data_mut());
        }
    }

    fn backward_into(&mut self, grad_output: &Tensor, grads: Backward, grad_input: &mut Tensor) {
        if !self.ready {
            backward_before_forward("DepthwiseConv2d");
        }
        let &[n, c, h, w] = self.saved_input.shape() else {
            unreachable!("saved input is always [n, c, h, w]")
        };
        let dims = PlaneDims::new(self.geom, n, h, w);
        check_backward_shape(
            "DepthwiseConv2d",
            &[n, c, dims.oh, dims.ow],
            grad_output.shape(),
        );
        let k2 = self.geom.kh * self.geom.kw;
        let ohw = dims.oh * dims.ow;
        dims.tap_offsets(self.geom, &mut self.offsets);
        let phase_len = dims.phase_len().max(1);
        let margin = self.offsets.iter().map(|&off| off % phase_len).max();
        let margin = margin.unwrap_or(0);
        // The weight- and bias-gradient sums start where `Iterator::sum`
        // starts, so they match the row dot products of the im2col
        // lowering bit for bit.
        let neutral: f32 = std::iter::empty::<f32>().sum();
        if grads.params() {
            self.chains.resize(k2 + 1, neutral);
            self.padded.clear();
            self.padded.resize(dims.padded_len(), 0.0);
        }
        if grads.input() {
            self.padded_grad.resize(dims.padded_len(), 0.0);
            // Every channel rewrites only the output positions.
            self.wide.clear();
            self.wide.resize(margin + dims.phase_len(), 0.0);
            resize_buffer(grad_input, self.saved_input.shape());
        }
        let (x, go) = (self.saved_input.data(), grad_output.data());
        // Channel-outer, so each channel's chains run over (sample, oy, ox)
        // in order.
        for ch in 0..c {
            if grads.params() {
                self.chains.fill(neutral);
                pad_planes(x, c, ch, dims, &mut self.padded);
                for j in 0..n {
                    let grad = &go[(j * c + ch) * ohw..][..ohw];
                    advance_param_chains(
                        &self.padded,
                        dims,
                        &self.offsets,
                        j,
                        grad,
                        &mut self.chains,
                    );
                }
                let dw = &mut self.weight.grad_mut().data_mut()[ch * k2..][..k2];
                for (d, &sum) in dw.iter_mut().zip(&self.chains) {
                    *d += sum;
                }
                self.bias.grad_mut().data_mut()[ch] += self.chains[k2];
            }
            if grads.input() {
                scatter_grads(go, dims, c, ch, &mut self.wide[margin..]);
                stencil_input_grad(
                    &self.wide,
                    margin,
                    dims,
                    &self.offsets,
                    &self.weight.value().data()[ch * k2..][..k2],
                    &mut self.padded_grad,
                );
                unpad_planes(&self.padded_grad, dims, c, ch, grad_input.data_mut());
            }
        }
    }

    fn buffer_capacity(&self) -> usize {
        self.saved_input.capacity()
            + self.padded.capacity()
            + self.padded_grad.capacity()
            + self.wide.capacity()
            + self.offsets.capacity()
            + self.chains.capacity()
    }

    fn release_buffers(&mut self) {
        self.saved_input = Tensor::default();
        self.padded = Vec::new();
        self.padded_grad = Vec::new();
        self.wide = Vec::new();
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

    /// Runs one layer of `kernel`, `stride` and `padding` over `x` and
    /// checks forward, dx, dW and db against the im2col reference, bit for
    /// bit. Returns false, checking nothing, if the geometry does not fit.
    fn matches_im2col_reference(x: &Tensor, kernel: usize, stride: usize, padding: usize) -> bool {
        let &[n, c, h, w] = x.shape() else {
            panic!("rank-4 input")
        };
        let geom = ConvGeometry::new(kernel, kernel, stride, padding).unwrap();
        let Ok((oh, ow)) = geom.output_size(h, w) else {
            return false;
        };
        let case = format!("{:?} k{kernel} s{stride} p{padding}", x.shape());
        let mut r = seeded();
        let mut dw = DepthwiseConv2d::new(c, kernel, stride, padding, &mut r).unwrap();
        rng::fill_uniform(dw.bias.value_mut(), -0.5, 0.5, &mut r);
        // Non-zero gradients, so the `+=` onto them is checked.
        dw.weight.grad_mut().data_mut().fill(0.25);
        dw.bias.grad_mut().data_mut().fill(-0.125);
        let g = Tensor::from_fn(&[n, c, oh, ow], |i| ((i * 17 % 13) as f32 - 6.0) * 0.1);

        let want_y = im2col_depthwise_forward(&dw, x);
        let (want_dx, want_dw, want_db) = im2col_depthwise_backward(&dw, x, &g);
        let (mut y, mut dx, mut dx_only) =
            (Tensor::default(), Tensor::default(), Tensor::default());
        dw.forward_into(x, Mode::Train, &mut y);
        dw.backward_into(&g, Backward::Full, &mut dx);
        dw.backward_into(&g, Backward::InputOnly, &mut dx_only);

        assert_eq!(bits(&y), bits(&want_y), "{case}: forward");
        assert_eq!(bits(&dx), bits(&want_dx), "{case}: dx");
        assert_eq!(bits(dw.weight.grad()), bits(&want_dw), "{case}: dW");
        assert_eq!(bits(dw.bias.grad()), bits(&want_db), "{case}: db");
        assert_eq!(bits(&dx_only), bits(&want_dx), "{case}: input-only dx");
        true
    }

    #[test]
    fn depthwise_stencil_matches_im2col_reference_bit_for_bit() {
        // Odd batch, odd width; at height 4 the 5x5 kernel without padding
        // is rejected, the other 24 geometries run.
        let x = Tensor::from_fn(&[3, 2, 4, 7], |i| ((i * 29 % 23) as f32 - 11.0) * 0.1);
        let mut tested = 0;
        for kernel in [1, 3, 5] {
            for stride in [1, 2, 3] {
                for padding in [0, 1, 2] {
                    tested += usize::from(matches_im2col_reference(&x, kernel, stride, padding));
                }
            }
        }
        assert_eq!(tested, 24);
        // Even widths at the models' kernel and padding: several planes
        // per channel stack, and at stride 2 two phases per row.
        for shape in [[2, 3, 8, 8], [2, 2, 16, 16]] {
            let x = Tensor::from_fn(&shape, |i| ((i * 31 % 19) as f32 - 9.0) * 0.1);
            for stride in [1, 2] {
                assert!(matches_im2col_reference(&x, 3, stride, 1));
            }
        }
    }

    #[test]
    fn depthwise_accepts_an_empty_batch() {
        for stride in [1, 2, 3] {
            let mut dw = DepthwiseConv2d::new(2, 3, stride, 1, &mut seeded()).unwrap();
            let y = dw.forward(&Tensor::zeros(&[0, 2, 8, 8]), Mode::Train);
            let (oh, ow) = dw.geom.output_size(8, 8).unwrap();
            assert_eq!(y.shape(), &[0, 2, oh, ow]);
            let g = Tensor::zeros(y.shape());
            assert_eq!(dw.backward(&g).shape(), &[0, 2, 8, 8]);
            let mut dx = Tensor::default();
            dw.backward_into(&g, Backward::InputOnly, &mut dx);
            assert_eq!(dx.shape(), &[0, 2, 8, 8]);
        }
    }

    #[test]
    fn depthwise_stride_halves_spatial_dims() {
        let mut r = seeded();
        let mut dw = DepthwiseConv2d::new(4, 3, 2, 1, &mut r).unwrap();
        let y = dw.forward(&Tensor::zeros(&[1, 4, 8, 8]), Mode::Train);
        assert_eq!(y.shape(), &[1, 4, 4, 4]);
    }
}
