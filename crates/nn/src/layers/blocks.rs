//! Composite blocks: ResNet basic blocks, MobileNet inverted residuals,
//! EfficientNet MBConv (inverted residual + squeeze-excitation).
//!
//! The dense and convolutional stages inside these blocks ([`Linear`] in
//! the squeeze-excite gate, [`Conv2d`] in every main path) accumulate
//! their weight gradients through the fused GEMM epilogue
//! (`reveil_tensor::ops::matmul_into` with `beta = 1`), so a block's
//! backward pass writes each parameter gradient exactly once instead of
//! matmul-then-`axpy`. Each block runs its children with the [`Backward`]
//! it was asked for, turned by `with_input` into one that writes the input
//! gradient (every child's input gradient feeds the block's own), so an
//! input-only backward reaches every child's input-only path. Every
//! block-level intermediate (branch outputs, ReLU masks, gate activations
//! and their gradients) lives in a reusable per-block buffer, so block
//! forward/backward passes allocate nothing once warmed up.

use rand::rngs::StdRng;

use reveil_tensor::Tensor;

use crate::layers::{
    backward_before_forward, check_backward_shape, expect_nchw, resize_buffer, BatchNorm2d, Conv2d,
    DepthwiseConv2d, GlobalAvgPool, Linear, Relu, Relu6, Sigmoid, Silu,
};
use crate::{Backward, Layer, Mode, NnError, Param, Sequential};

/// ResNet basic block: `y = relu(main(x) + shortcut(x))`.
///
/// The main path is conv–bn–relu–conv–bn; the shortcut is the identity when
/// shapes match and a strided 1×1 conv + bn projection otherwise.
pub struct ResidualBlock {
    main: Sequential,
    shortcut: Option<Sequential>,
    /// 1.0 where the post-add pre-activation was positive.
    relu_mask: Tensor,
    ready: bool,
    // Reusable forward/backward scratch.
    main_out: Tensor,
    shortcut_out: Tensor,
    gated: Tensor,
    dx_main: Tensor,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidualBlock")
            .field("projected", &self.shortcut.is_some())
            .finish()
    }
}

impl ResidualBlock {
    /// Creates a basic block mapping `in_ch → out_ch` with the given stride.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the constituent layers.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        stride: usize,
        init_rng: &mut StdRng,
    ) -> Result<Self, NnError> {
        let main = Sequential::new()
            .push(Conv2d::new(in_ch, out_ch, 3, stride, 1, init_rng)?)
            .push(BatchNorm2d::new(out_ch)?)
            .push(Relu::new())
            .push(Conv2d::new(out_ch, out_ch, 3, 1, 1, init_rng)?)
            .push(BatchNorm2d::new(out_ch)?);
        let shortcut = if stride != 1 || in_ch != out_ch {
            Some(
                Sequential::new()
                    .push(Conv2d::new(in_ch, out_ch, 1, stride, 0, init_rng)?)
                    .push(BatchNorm2d::new(out_ch)?),
            )
        } else {
            None
        };
        Ok(Self {
            main,
            shortcut,
            relu_mask: Tensor::default(),
            ready: false,
            main_out: Tensor::default(),
            shortcut_out: Tensor::default(),
            gated: Tensor::default(),
            dx_main: Tensor::default(),
        })
    }
}

impl Layer for ResidualBlock {
    fn forward_into(&mut self, input: &Tensor, mode: Mode, out: &mut Tensor) {
        self.main.forward_into(input, mode, &mut self.main_out);
        let short: &Tensor = match &mut self.shortcut {
            Some(s) => {
                s.forward_into(input, mode, &mut self.shortcut_out);
                &self.shortcut_out
            }
            None => input,
        };
        debug_assert_eq!(self.main_out.shape(), short.shape());
        resize_buffer(&mut self.relu_mask, self.main_out.shape());
        resize_buffer(out, self.main_out.shape());
        let dst = out.data_mut();
        let mask = self.relu_mask.data_mut();
        for (((o, m), &a), &b) in dst
            .iter_mut()
            .zip(mask.iter_mut())
            .zip(self.main_out.data())
            .zip(short.data())
        {
            let pre = a + b;
            *m = if pre > 0.0 { 1.0 } else { 0.0 };
            *o = pre.max(0.0);
        }
        self.ready = true;
    }

    fn backward_into(&mut self, grad_output: &Tensor, grads: Backward, grad_input: &mut Tensor) {
        let grads = grads.with_input();
        if !self.ready {
            backward_before_forward("ResidualBlock");
        }
        check_backward_shape("ResidualBlock", self.relu_mask.shape(), grad_output.shape());
        resize_buffer(&mut self.gated, grad_output.shape());
        for ((d, &g), &m) in self
            .gated
            .data_mut()
            .iter_mut()
            .zip(grad_output.data())
            .zip(self.relu_mask.data())
        {
            *d = g * m;
        }
        self.main
            .backward_into(&self.gated, grads, &mut self.dx_main);
        match &mut self.shortcut {
            Some(s) => {
                s.backward_into(&self.gated, grads, grad_input);
                // f32 addition is commutative and exact either way, so
                // accumulating the main-path gradient onto the shortcut's
                // matches the old `dx_main + dx_shortcut` bit for bit.
                for (o, &a) in grad_input.data_mut().iter_mut().zip(self.dx_main.data()) {
                    *o += a;
                }
            }
            None => {
                resize_buffer(grad_input, self.dx_main.shape());
                for ((o, &a), &g) in grad_input
                    .data_mut()
                    .iter_mut()
                    .zip(self.dx_main.data())
                    .zip(self.gated.data())
                {
                    *o = a + g;
                }
            }
        }
    }

    fn buffer_capacity(&self) -> usize {
        self.main.buffer_capacity()
            + self.shortcut.as_ref().map_or(0, Layer::buffer_capacity)
            + self.relu_mask.capacity()
            + self.main_out.capacity()
            + self.shortcut_out.capacity()
            + self.gated.capacity()
            + self.dx_main.capacity()
    }

    fn release_buffers(&mut self) {
        self.main.release_buffers();
        if let Some(s) = &mut self.shortcut {
            s.release_buffers();
        }
        self.relu_mask = Tensor::default();
        self.main_out = Tensor::default();
        self.shortcut_out = Tensor::default();
        self.gated = Tensor::default();
        self.dx_main = Tensor::default();
        self.ready = false;
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(f);
        if let Some(s) = &mut self.shortcut {
            s.visit_params(f);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.main.visit_state(f);
        if let Some(s) = &mut self.shortcut {
            s.visit_state(f);
        }
    }

    fn name(&self) -> &'static str {
        "residual_block"
    }
}

/// Squeeze-and-excitation: rescales channels by a learned gate
/// `s = σ(W₂·silu(W₁·gap(x)))`, `y = x ⊙ s`.
pub struct SqueezeExcite {
    gap: GlobalAvgPool,
    fc1: Linear,
    act: Silu,
    fc2: Linear,
    sig: Sigmoid,
    /// Saved copy of the forward input (the gate gradient needs `x`).
    saved_input: Tensor,
    /// The per-(sample, channel) gate values from the last forward pass.
    scale: Tensor,
    ready: bool,
    // Reusable gate-chain scratch (forward activations / backward grads).
    pooled: Tensor,
    t1: Tensor,
    t2: Tensor,
    t3: Tensor,
    dscale: Tensor,
    ga: Tensor,
    gb: Tensor,
}

impl std::fmt::Debug for SqueezeExcite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SqueezeExcite")
            .field("channels", &self.fc2.out_features())
            .finish()
    }
}

impl SqueezeExcite {
    /// Creates a squeeze-excite gate over `channels` with the given
    /// bottleneck reduction factor (clamped so the bottleneck is ≥ 1 wide).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the internal linear layers.
    pub fn new(channels: usize, reduction: usize, init_rng: &mut StdRng) -> Result<Self, NnError> {
        let mid = (channels / reduction.max(1)).max(1);
        Ok(Self {
            gap: GlobalAvgPool::new(),
            fc1: Linear::new(channels, mid, init_rng)?,
            act: Silu::new(),
            fc2: Linear::new(mid, channels, init_rng)?,
            sig: Sigmoid::new(),
            saved_input: Tensor::default(),
            scale: Tensor::default(),
            ready: false,
            pooled: Tensor::default(),
            t1: Tensor::default(),
            t2: Tensor::default(),
            t3: Tensor::default(),
            dscale: Tensor::default(),
            ga: Tensor::default(),
            gb: Tensor::default(),
        })
    }
}

impl Layer for SqueezeExcite {
    fn forward_into(&mut self, input: &Tensor, mode: Mode, out: &mut Tensor) {
        let (n, c, h, w) = expect_nchw("SqueezeExcite", input);
        resize_buffer(&mut self.saved_input, input.shape());
        self.saved_input.data_mut().copy_from_slice(input.data());
        self.gap.forward_into(input, mode, &mut self.pooled);
        self.fc1.forward_into(&self.pooled, mode, &mut self.t1);
        self.act.forward_into(&self.t1, mode, &mut self.t2);
        self.fc2.forward_into(&self.t2, mode, &mut self.t3);
        self.sig.forward_into(&self.t3, mode, &mut self.scale);
        self.ready = true;

        resize_buffer(out, input.shape());
        let dst = out.data_mut();
        let scale = self.scale.data();
        let plane = h * w;
        for img in 0..n {
            for ch in 0..c {
                let s = scale[img * c + ch];
                let base = (img * c + ch) * plane;
                for (o, &x) in dst[base..base + plane]
                    .iter_mut()
                    .zip(&input.data()[base..base + plane])
                {
                    *o = x * s;
                }
            }
        }
    }

    fn backward_into(&mut self, grad_output: &Tensor, grads: Backward, grad_input: &mut Tensor) {
        let grads = grads.with_input();
        if !self.ready {
            backward_before_forward("SqueezeExcite");
        }
        check_backward_shape(
            "SqueezeExcite",
            self.saved_input.shape(),
            grad_output.shape(),
        );
        let &[n, c, h, w] = self.saved_input.shape() else {
            unreachable!("saved input is always [n, c, h, w]")
        };
        let plane = h * w;

        // Direct term: ∂(x ⊙ s)/∂x with s treated constant.
        // Gate term: ds[n, c] = Σ_hw g ⊙ x.
        resize_buffer(grad_input, self.saved_input.shape());
        resize_buffer(&mut self.dscale, &[n, c]);
        let gi = grad_input.data_mut();
        let ds = self.dscale.data_mut();
        let x = self.saved_input.data();
        let g = grad_output.data();
        let scale = self.scale.data();
        for img in 0..n {
            for ch in 0..c {
                let s = scale[img * c + ch];
                let base = (img * c + ch) * plane;
                let mut acc = 0.0;
                for i in base..base + plane {
                    acc += g[i] * x[i];
                    gi[i] = g[i] * s;
                }
                ds[img * c + ch] = acc;
            }
        }

        // Chain through sigmoid → fc2 → silu → fc1 → gap back to the input.
        self.sig.backward_into(&self.dscale, grads, &mut self.ga);
        self.fc2.backward_into(&self.ga, grads, &mut self.gb);
        self.act.backward_into(&self.gb, grads, &mut self.ga);
        self.fc1.backward_into(&self.ga, grads, &mut self.gb);
        self.gap.backward_into(&self.gb, grads, &mut self.ga);
        for (o, &v) in grad_input.data_mut().iter_mut().zip(self.ga.data()) {
            *o += v;
        }
    }

    fn buffer_capacity(&self) -> usize {
        self.fc1.buffer_capacity()
            + self.fc2.buffer_capacity()
            + self.act.buffer_capacity()
            + self.sig.buffer_capacity()
            + self.saved_input.capacity()
            + self.scale.capacity()
            + self.pooled.capacity()
            + self.t1.capacity()
            + self.t2.capacity()
            + self.t3.capacity()
            + self.dscale.capacity()
            + self.ga.capacity()
            + self.gb.capacity()
    }

    fn release_buffers(&mut self) {
        self.gap.release_buffers();
        self.fc1.release_buffers();
        self.act.release_buffers();
        self.fc2.release_buffers();
        self.sig.release_buffers();
        self.saved_input = Tensor::default();
        self.scale = Tensor::default();
        self.pooled = Tensor::default();
        self.t1 = Tensor::default();
        self.t2 = Tensor::default();
        self.t3 = Tensor::default();
        self.dscale = Tensor::default();
        self.ga = Tensor::default();
        self.gb = Tensor::default();
        self.ready = false;
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }

    fn name(&self) -> &'static str {
        "squeeze_excite"
    }
}

/// Linear-bottleneck inverted residual with an optional skip connection
/// (no post-add activation).
///
/// [`InvertedResidual::mobilenet`] builds the MobileNetV2 variant
/// (expand → depthwise → project with ReLU6); [`InvertedResidual::mbconv`]
/// builds the EfficientNet variant (SiLU activations plus squeeze-excite).
pub struct InvertedResidual {
    body: Sequential,
    use_res: bool,
    kind: &'static str,
    /// Body output buffer (residual variant only).
    body_out: Tensor,
}

impl std::fmt::Debug for InvertedResidual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvertedResidual")
            .field("kind", &self.kind)
            .field("use_res", &self.use_res)
            .finish()
    }
}

impl InvertedResidual {
    /// MobileNetV2 inverted residual: 1×1 expand (+BN+ReLU6), 3×3 depthwise
    /// (+BN+ReLU6), 1×1 project (+BN), residual when `stride == 1` and
    /// channel counts match.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the constituent layers.
    pub fn mobilenet(
        in_ch: usize,
        out_ch: usize,
        stride: usize,
        expand: usize,
        init_rng: &mut StdRng,
    ) -> Result<Self, NnError> {
        let mid = in_ch * expand.max(1);
        let mut body = Sequential::new();
        if expand > 1 {
            body = body
                .push(Conv2d::new(in_ch, mid, 1, 1, 0, init_rng)?)
                .push(BatchNorm2d::new(mid)?)
                .push(Relu6::new());
        }
        let mid = if expand > 1 { mid } else { in_ch };
        let body = body
            .push(DepthwiseConv2d::new(mid, 3, stride, 1, init_rng)?)
            .push(BatchNorm2d::new(mid)?)
            .push(Relu6::new())
            .push(Conv2d::new(mid, out_ch, 1, 1, 0, init_rng)?)
            .push(BatchNorm2d::new(out_ch)?);
        Ok(Self {
            body,
            use_res: stride == 1 && in_ch == out_ch,
            kind: "mobilenet",
            body_out: Tensor::default(),
        })
    }

    /// EfficientNet MBConv: like [`InvertedResidual::mobilenet`] but with
    /// SiLU activations and a squeeze-excite stage before projection.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the constituent layers.
    pub fn mbconv(
        in_ch: usize,
        out_ch: usize,
        stride: usize,
        expand: usize,
        init_rng: &mut StdRng,
    ) -> Result<Self, NnError> {
        let mid = in_ch * expand.max(1);
        let mut body = Sequential::new();
        if expand > 1 {
            body = body
                .push(Conv2d::new(in_ch, mid, 1, 1, 0, init_rng)?)
                .push(BatchNorm2d::new(mid)?)
                .push(Silu::new());
        }
        let mid = if expand > 1 { mid } else { in_ch };
        let body = body
            .push(DepthwiseConv2d::new(mid, 3, stride, 1, init_rng)?)
            .push(BatchNorm2d::new(mid)?)
            .push(Silu::new())
            .push(SqueezeExcite::new(mid, 4, init_rng)?)
            .push(Conv2d::new(mid, out_ch, 1, 1, 0, init_rng)?)
            .push(BatchNorm2d::new(out_ch)?);
        Ok(Self {
            body,
            use_res: stride == 1 && in_ch == out_ch,
            kind: "mbconv",
            body_out: Tensor::default(),
        })
    }
}

impl Layer for InvertedResidual {
    fn forward_into(&mut self, input: &Tensor, mode: Mode, out: &mut Tensor) {
        if self.use_res {
            self.body.forward_into(input, mode, &mut self.body_out);
            debug_assert_eq!(self.body_out.shape(), input.shape());
            resize_buffer(out, self.body_out.shape());
            for ((o, &a), &b) in out
                .data_mut()
                .iter_mut()
                .zip(self.body_out.data())
                .zip(input.data())
            {
                *o = a + b;
            }
        } else {
            self.body.forward_into(input, mode, out);
        }
    }

    fn backward_into(&mut self, grad_output: &Tensor, grads: Backward, grad_input: &mut Tensor) {
        self.body
            .backward_into(grad_output, grads.with_input(), grad_input);
        if self.use_res {
            debug_assert_eq!(grad_input.shape(), grad_output.shape());
            for (o, &g) in grad_input.data_mut().iter_mut().zip(grad_output.data()) {
                *o += g;
            }
        }
    }

    fn buffer_capacity(&self) -> usize {
        self.body.buffer_capacity() + self.body_out.capacity()
    }

    fn release_buffers(&mut self) {
        self.body.release_buffers();
        self.body_out = Tensor::default();
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.body.visit_params(f);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.body.visit_state(f);
    }

    fn name(&self) -> &'static str {
        match self.kind {
            "mbconv" => "mbconv",
            _ => "inverted_residual",
        }
    }
}

/// Alias constructor mirroring EfficientNet terminology.
///
/// # Errors
///
/// Propagates configuration errors from [`InvertedResidual::mbconv`].
pub fn mb_conv(
    in_ch: usize,
    out_ch: usize,
    stride: usize,
    expand: usize,
    init_rng: &mut StdRng,
) -> Result<InvertedResidual, NnError> {
    InvertedResidual::mbconv(in_ch, out_ch, stride, expand, init_rng)
}

/// Alias type for the EfficientNet-flavoured [`InvertedResidual`].
pub type MbConv = InvertedResidual;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use reveil_tensor::rng;

    fn seeded() -> StdRng {
        rng::rng_from_seed(17)
    }

    fn probe(n: usize, c: usize, hw: usize) -> Tensor {
        Tensor::from_fn(&[n, c, hw, hw], |i| ((i * 13 % 23) as f32 - 11.0) * 0.1)
    }

    #[test]
    fn residual_identity_shortcut_when_shapes_match() {
        let mut r = seeded();
        let block = ResidualBlock::new(4, 4, 1, &mut r).unwrap();
        assert!(block.shortcut.is_none());
        let block = ResidualBlock::new(4, 8, 2, &mut r).unwrap();
        assert!(block.shortcut.is_some());
    }

    #[test]
    fn residual_forward_shapes() {
        let mut r = seeded();
        let mut block = ResidualBlock::new(3, 6, 2, &mut r).unwrap();
        let y = block.forward(&probe(2, 3, 8), Mode::Train);
        assert_eq!(y.shape(), &[2, 6, 4, 4]);
        assert!(y.data().iter().all(|&v| v >= 0.0), "post-add relu output");
    }

    #[test]
    fn residual_gradient_matches_finite_difference() {
        let mut r = seeded();
        let mut block = ResidualBlock::new(2, 2, 1, &mut r).unwrap();
        // Eval mode: batch-norm statistics fixed, so finite differences see
        // the same linearisation the analytic backward uses.
        let warm = probe(4, 2, 4);
        block.forward(&warm, Mode::Train);
        gradcheck::check_input_gradient(&mut block, &probe(2, 2, 4), Mode::Eval, 3e-2);
    }

    #[test]
    fn squeeze_excite_preserves_shape_and_gates() {
        let mut r = seeded();
        let mut se = SqueezeExcite::new(4, 2, &mut r).unwrap();
        let x = probe(2, 4, 3);
        let y = se.forward(&x, Mode::Train);
        assert_eq!(y.shape(), x.shape());
        // Sigmoid gate ∈ (0, 1): |y| < |x| elementwise (where x ≠ 0).
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!(b.abs() <= a.abs() + 1e-6);
        }
    }

    #[test]
    fn squeeze_excite_gradient_matches_finite_difference() {
        let mut r = seeded();
        let mut se = SqueezeExcite::new(3, 2, &mut r).unwrap();
        gradcheck::check_input_gradient(&mut se, &probe(2, 3, 3), Mode::Eval, 3e-2);
    }

    #[test]
    fn squeeze_excite_param_gradients_match_finite_difference() {
        let mut r = seeded();
        let mut se = SqueezeExcite::new(3, 2, &mut r).unwrap();
        gradcheck::check_param_gradients(&mut se, &probe(2, 3, 3), Mode::Eval, 3e-2);
    }

    #[test]
    fn inverted_residual_residual_condition() {
        let mut r = seeded();
        let a = InvertedResidual::mobilenet(4, 4, 1, 2, &mut r).unwrap();
        assert!(a.use_res);
        let b = InvertedResidual::mobilenet(4, 8, 1, 2, &mut r).unwrap();
        assert!(!b.use_res);
        let c = InvertedResidual::mobilenet(4, 4, 2, 2, &mut r).unwrap();
        assert!(!c.use_res);
    }

    #[test]
    fn inverted_residual_gradient_matches_finite_difference() {
        let mut r = seeded();
        let mut block = InvertedResidual::mobilenet(2, 2, 1, 2, &mut r).unwrap();
        block.forward(&probe(4, 2, 4), Mode::Train);
        gradcheck::check_input_gradient(&mut block, &probe(2, 2, 4), Mode::Eval, 3e-2);
    }

    #[test]
    fn mbconv_gradient_matches_finite_difference() {
        let mut r = seeded();
        let mut block = InvertedResidual::mbconv(2, 2, 1, 2, &mut r).unwrap();
        block.forward(&probe(4, 2, 4), Mode::Train);
        gradcheck::check_input_gradient(&mut block, &probe(2, 2, 4), Mode::Eval, 3e-2);
    }

    #[test]
    fn mbconv_downsamples_with_stride() {
        let mut r = seeded();
        let mut block = mb_conv(3, 6, 2, 2, &mut r).unwrap();
        let y = block.forward(&probe(1, 3, 8), Mode::Train);
        assert_eq!(y.shape(), &[1, 6, 4, 4]);
        assert_eq!(block.name(), "mbconv");
    }

    #[test]
    #[should_panic(expected = "ResidualBlock::backward called before forward")]
    fn residual_backward_before_forward_panics() {
        let mut r = seeded();
        ResidualBlock::new(2, 2, 1, &mut r)
            .unwrap()
            .backward(&Tensor::ones(&[1, 2, 2, 2]));
    }

    #[test]
    fn block_buffer_reuse_is_bit_identical_and_allocation_free() {
        let mut r = seeded();
        let blocks: Vec<Box<dyn Layer>> = vec![
            Box::new(ResidualBlock::new(2, 4, 2, &mut r).unwrap()),
            Box::new(InvertedResidual::mobilenet(2, 2, 1, 2, &mut r).unwrap()),
            Box::new(InvertedResidual::mbconv(2, 2, 1, 2, &mut r).unwrap()),
            Box::new(SqueezeExcite::new(2, 2, &mut r).unwrap()),
        ];
        let x = probe(2, 2, 4);
        for mut block in blocks {
            // Warm in eval mode so batch-norm running stats stay frozen and
            // repeated passes are exactly reproducible.
            let mut out = Tensor::default();
            let mut dx = Tensor::default();
            block.forward_into(&x, Mode::Eval, &mut out);
            let g = Tensor::from_fn(out.shape(), |i| ((i * 7 % 5) as f32 - 2.0) * 0.1);
            block.backward_into(&g, Backward::Full, &mut dx);
            let (first_out, first_dx) = (out.clone(), dx.clone());
            let warmed = block.buffer_capacity();
            assert!(warmed > 0, "{} must report its buffers", block.name());
            for _ in 0..3 {
                block.forward_into(&x, Mode::Eval, &mut out);
                block.backward_into(&g, Backward::Full, &mut dx);
                assert_eq!(out, first_out, "{} forward drifted", block.name());
                assert_eq!(dx, first_dx, "{} backward drifted", block.name());
                assert_eq!(
                    block.buffer_capacity(),
                    warmed,
                    "{} buffers must not grow once warmed",
                    block.name()
                );
            }
        }
    }
}
