//! Optimizers and learning-rate schedules.
//!
//! The paper trains every model with Adam (initial LR 1e-3, weight decay
//! 1e-4) under a cosine-annealing schedule with `T_max` equal to the epoch
//! count; [`Adam`] and [`CosineAnnealing`] reproduce that recipe. Weight
//! decay is applied PyTorch-Adam style: added to the gradient before the
//! moment updates (L2-coupled, not AdamW-decoupled).
//!
//! Both optimizers update every parameter with one fused in-place sweep
//! over its `(value, grad, state)` slices — no per-step gradient clones or
//! collected output vectors — so a warmed-up step allocates nothing
//! (Adam's state is created once, on the first step that sees a
//! parameter). The sweeps run on the caller's thread, like
//! every other kernel of the training step.

use std::collections::BTreeMap;

use reveil_tensor::Tensor;

use crate::{Network, Param};

/// A first-order optimizer stepping a [`Network`]'s parameters from their
/// accumulated gradients.
pub trait Optimizer {
    /// Applies one update step using the currently accumulated gradients.
    fn step(&mut self, network: &mut Network);

    /// Sets the learning rate (used by schedules between epochs).
    fn set_lr(&mut self, lr: f32);

    /// Current learning rate.
    fn lr(&self) -> f32;
}

/// Plain stochastic gradient descent: `w += -lr·g`.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, network: &mut Network) {
        let lr = self.lr;
        network.visit_params(&mut |p| {
            let (value, grad) = p.value_and_grad_mut();
            for (w, &g) in value.data_mut().iter_mut().zip(grad.data()) {
                *w += -lr * g;
            }
        });
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

/// Adam optimizer with bias correction and L2-coupled weight decay.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    state: BTreeMap<u64, (Tensor, Tensor)>,
}

impl Adam {
    /// Creates Adam with the standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            state: BTreeMap::new(),
        }
    }

    /// Sets the L2 weight-decay coefficient (builder style).
    #[must_use]
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        self.weight_decay = weight_decay;
        self
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    fn step_param(&mut self, p: &mut Param) {
        let id = p.id();
        let (m, v) = self.state.entry(id).or_insert_with(|| {
            (
                Tensor::zeros(p.value().shape()),
                Tensor::zeros(p.value().shape()),
            )
        });
        let b1 = self.beta1;
        let b2 = self.beta2;
        let bias1 = 1.0 - b1.powi(self.t as i32);
        let bias2 = 1.0 - b2.powi(self.t as i32);
        let lr = self.lr;
        let eps = self.eps;
        let wd = self.weight_decay;

        // One fused in-place sweep over (value, grad, m, v): the same
        // per-element arithmetic as the old collect-to-Vec path (each
        // element reads its weight before writing it), no temporaries.
        let (value, grad) = p.value_and_grad_mut();
        for (((w, &g0), m_i), v_i) in value
            .data_mut()
            .iter_mut()
            .zip(grad.data())
            .zip(m.data_mut())
            .zip(v.data_mut())
        {
            let g = g0 + wd * *w;
            *m_i = b1 * *m_i + (1.0 - b1) * g;
            *v_i = b2 * *v_i + (1.0 - b2) * g * g;
            let m_hat = *m_i / bias1;
            let v_hat = *v_i / bias2;
            *w -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, network: &mut Network) {
        self.t += 1;
        let mut this = std::mem::replace(self, Adam::new(0.0));
        network.visit_params(&mut |p| this.step_param(p));
        *self = this;
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

/// Cosine-annealing learning-rate schedule:
/// `η_t = η_min + (η₀ − η_min)·(1 + cos(π·t/T_max))/2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosineAnnealing {
    base_lr: f32,
    eta_min: f32,
    t_max: usize,
}

impl CosineAnnealing {
    /// Creates a schedule decaying from `base_lr` to 0 over `t_max` epochs
    /// (the paper uses `T_max = 100` over 100 epochs).
    pub fn new(base_lr: f32, t_max: usize) -> Self {
        Self {
            base_lr,
            eta_min: 0.0,
            t_max: t_max.max(1),
        }
    }

    /// Learning rate at the start of epoch `t` (0-based).
    pub fn lr_at(&self, t: usize) -> f32 {
        let progress = (t.min(self.t_max)) as f32 / self.t_max as f32;
        self.eta_min
            + (self.base_lr - self.eta_min) * (1.0 + (std::f32::consts::PI * progress).cos()) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear};
    use crate::loss::softmax_cross_entropy;
    use crate::{Mode, Sequential};
    use reveil_tensor::rng;

    fn tiny_net() -> Network {
        let mut r = rng::rng_from_seed(8);
        let backbone = Sequential::new().push(Flatten::new());
        let head = Sequential::new().push(Linear::new(4, 2, &mut r).unwrap());
        Network::new(backbone, head, (1, 2, 2), 2, "probe")
    }

    fn loss_of(net: &mut Network, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = net.forward(x, Mode::Train);
        softmax_cross_entropy(&logits, labels).unwrap().0
    }

    fn train_step(net: &mut Network, opt: &mut dyn Optimizer, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = net.forward(x, Mode::Train);
        let (loss, grad) = softmax_cross_entropy(&logits, labels).unwrap();
        net.zero_grads();
        net.backward_to_input(&grad);
        opt.step(net);
        loss
    }

    #[test]
    fn sgd_decreases_loss() {
        let mut net = tiny_net();
        let x = Tensor::from_fn(&[4, 1, 2, 2], |i| (i % 3) as f32);
        let labels = [0, 1, 0, 1];
        let initial = loss_of(&mut net, &x, &labels);
        let mut opt = Sgd::new(0.1);
        for _ in 0..20 {
            train_step(&mut net, &mut opt, &x, &labels);
        }
        let final_loss = loss_of(&mut net, &x, &labels);
        assert!(final_loss < initial, "{final_loss} !< {initial}");
    }

    #[test]
    fn adam_decreases_loss_faster_than_tiny_sgd() {
        let mut net = tiny_net();
        let x = Tensor::from_fn(&[4, 1, 2, 2], |i| ((i * 7) % 5) as f32);
        let labels = [1, 0, 1, 0];
        let mut opt = Adam::new(0.05);
        let initial = loss_of(&mut net, &x, &labels);
        for _ in 0..30 {
            train_step(&mut net, &mut opt, &x, &labels);
        }
        assert!(loss_of(&mut net, &x, &labels) < initial * 0.5);
        assert_eq!(opt.steps(), 30);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut net = tiny_net();
        // Zero gradients: with pure decay the weights must shrink.
        net.zero_grads();
        let before: f32 = {
            let mut norm = 0.0;
            net.visit_params(&mut |p| norm += p.value().sq_norm());
            norm
        };
        let mut opt = Adam::new(0.1).with_weight_decay(0.5);
        for _ in 0..10 {
            opt.step(&mut net);
        }
        let mut after = 0.0;
        net.visit_params(&mut |p| after += p.value().sq_norm());
        assert!(after < before * 0.9, "{after} !< {before}");
    }

    #[test]
    fn cosine_schedule_endpoints_and_midpoint() {
        let sched = CosineAnnealing::new(1e-3, 100);
        assert!((sched.lr_at(0) - 1e-3).abs() < 1e-9);
        assert!((sched.lr_at(50) - 5e-4).abs() < 1e-6);
        assert!(sched.lr_at(100) < 1e-6);
        // Monotone decreasing.
        for t in 1..=100 {
            assert!(sched.lr_at(t) <= sched.lr_at(t - 1) + 1e-9);
        }
    }

    #[test]
    fn set_lr_roundtrip() {
        let mut adam = Adam::new(0.1);
        adam.set_lr(0.01);
        assert_eq!(adam.lr(), 0.01);
        let mut sgd = Sgd::new(0.2);
        sgd.set_lr(0.02);
        assert_eq!(sgd.lr(), 0.02);
    }
}
