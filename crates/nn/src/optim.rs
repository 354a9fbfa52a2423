//! Optimizers with *masked* updates.
//!
//! Sliced training produces gradient tensors that are exactly zero outside
//! the trained window. The optimizers here skip zero-gradient elements
//! entirely — no momentum decay, no weight decay — so training one
//! sub-network can never perturb another sub-network's weights. This is the
//! property that lets Algorithm 1 interleave base-ladder and upper-ladder
//! phases over shared storage.

use fluid_tensor::Tensor;

type Pair<'a> = (&'a mut Tensor, &'a Tensor);

/// Pairs stored inline before spilling to the heap. Every model family in
/// this workspace has well under this many parameter tensors, so building
/// a set each step performs **zero heap allocation** — part of the
/// steady-state training contract (`docs/PERFORMANCE.md`).
const INLINE_PAIRS: usize = 32;

/// A set of `(param, grad)` pairs collected from layers for one step.
///
/// Layers expose `visit_params`; the training loop gathers them into a
/// `ParamSet` and hands it to an [`Optimizer`]. Because the set borrows
/// the layers, it is rebuilt every step — which is why its storage is
/// inline (a heap `Vec` here would be a per-step allocation).
pub struct ParamSet<'a> {
    inline: [Option<Pair<'a>>; INLINE_PAIRS],
    inline_len: usize,
    spill: Vec<Pair<'a>>,
}

impl<'a> ParamSet<'a> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self {
            inline: std::array::from_fn(|_| None),
            inline_len: 0,
            spill: Vec::new(),
        }
    }

    /// Adds a `(param, grad)` pair.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn push(&mut self, param: &'a mut Tensor, grad: &'a Tensor) {
        assert_eq!(param.dims(), grad.dims(), "param/grad shape mismatch");
        if self.inline_len < INLINE_PAIRS {
            self.inline[self.inline_len] = Some((param, grad));
            self.inline_len += 1;
        } else {
            self.spill.push((param, grad));
        }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pairs, in insertion order.
    fn iter(&self) -> impl Iterator<Item = &Pair<'a>> {
        self.inline[..self.inline_len]
            .iter()
            .map(|p| p.as_ref().expect("slots below inline_len are filled"))
            .chain(self.spill.iter())
    }

    /// The pairs, mutably, in insertion order.
    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Pair<'a>> {
        self.inline[..self.inline_len]
            .iter_mut()
            .map(|p| p.as_mut().expect("slots below inline_len are filled"))
            .chain(self.spill.iter_mut())
    }
}

impl Default for ParamSet<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// An optimizer that applies one update step to a [`ParamSet`].
///
/// Implementations key internal state (momentum, Adam moments) by the
/// *position* of each pair, so callers must present parameters in a stable
/// order across steps.
pub trait Optimizer {
    /// Applies one update step. Elements whose gradient is exactly zero are
    /// skipped (masked update).
    fn step(&mut self, params: &mut ParamSet<'_>);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum and L2 weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`, `momentum < 0`, or `weight_decay < 0`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(momentum >= 0.0 && weight_decay >= 0.0);
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamSet<'_>) {
        if self.velocity.len() < params.len() {
            let have = self.velocity.len();
            for (p, _) in params.iter().skip(have) {
                self.velocity.push(Tensor::zeros(p.dims()));
            }
        }
        for (i, (param, grad)) in params.iter_mut().enumerate() {
            assert_eq!(
                self.velocity[i].dims(),
                param.dims(),
                "parameter {i} changed shape between steps"
            );
            let v = self.velocity[i].data_mut();
            let p = param.data_mut();
            let g = grad.data();
            for j in 0..p.len() {
                if g[j] == 0.0 {
                    continue; // masked: untouched by this sub-network
                }
                let eff = g[j] + self.weight_decay * p[j];
                v[j] = self.momentum * v[j] + eff;
                p[j] -= self.lr * v[j];
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction and masked updates.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet<'_>) {
        self.t += 1;
        while self.m.len() < params.len() {
            let dims = params
                .iter()
                .nth(self.m.len())
                .expect("len checked")
                .0
                .dims()
                .to_vec();
            self.m.push(Tensor::zeros(&dims));
            self.v.push(Tensor::zeros(&dims));
        }
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, (param, grad)) in params.iter_mut().enumerate() {
            let m = self.m[i].data_mut();
            let v = self.v[i].data_mut();
            let p = param.data_mut();
            let g = grad.data();
            for j in 0..p.len() {
                if g[j] == 0.0 {
                    continue;
                }
                let eff = g[j] + self.weight_decay * p[j];
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * eff;
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * eff * eff;
                let mh = m[j] / bc1;
                let vh = v[j] / bc2;
                p[j] -= self.lr * mh / (vh.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        let g = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        let mut set = ParamSet::new();
        set.push(&mut p, &g);
        opt.step(&mut set);
        assert!((p.data()[0] - 0.95).abs() < 1e-6);
        assert!((p.data()[1] - 1.05).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_adds_to_the_gradient() {
        // One plain step: p ← p − lr·(g + wd·p), evaluated in f32.
        let (lr, g, wd) = (0.1f32, 0.5f32, 0.1f32);
        let mut p = Tensor::from_vec(vec![1.0], &[1]);
        let grad = Tensor::from_vec(vec![g], &[1]);
        let mut set = ParamSet::new();
        set.push(&mut p, &grad);
        Sgd::new(lr, 0.0, wd).step(&mut set);
        assert_eq!(p.data()[0], 1.0 - lr * (g + wd * 1.0));
    }

    #[test]
    fn masked_elements_untouched_even_with_decay() {
        let mut p = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let g = Tensor::from_vec(vec![1.0, 0.0], &[2]);
        let mut opt = Sgd::new(0.1, 0.9, 0.01);
        let mut set = ParamSet::new();
        set.push(&mut p, &g);
        opt.step(&mut set);
        assert_eq!(p.data()[1], 2.0, "zero-grad element must not move");
        assert!(p.data()[0] < 1.0);
    }

    #[test]
    fn momentum_accelerates() {
        let g = Tensor::from_vec(vec![1.0], &[1]);
        let mut plain = Tensor::from_vec(vec![0.0], &[1]);
        let mut fast = Tensor::from_vec(vec![0.0], &[1]);
        let mut opt_plain = Sgd::new(0.1, 0.0, 0.0);
        let mut opt_momentum = Sgd::new(0.1, 0.9, 0.0);
        for _ in 0..5 {
            let mut s1 = ParamSet::new();
            s1.push(&mut plain, &g);
            opt_plain.step(&mut s1);
            let mut s2 = ParamSet::new();
            s2.push(&mut fast, &g);
            opt_momentum.step(&mut s2);
        }
        assert!(
            fast.data()[0] < plain.data()[0],
            "momentum should move farther"
        );
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise (x - 3)^2 with gradient 2(x-3).
        let mut x = Tensor::from_vec(vec![0.0], &[1]);
        let mut opt = Adam::new(0.1, 0.0);
        for _ in 0..300 {
            let g = Tensor::from_vec(vec![2.0 * (x.data()[0] - 3.0)], &[1]);
            let mut s = ParamSet::new();
            s.push(&mut x, &g);
            opt.step(&mut s);
        }
        assert!((x.data()[0] - 3.0).abs() < 0.05, "x = {}", x.data()[0]);
    }

    #[test]
    fn adam_masked_elements_untouched() {
        let mut p = Tensor::from_vec(vec![5.0, 5.0], &[2]);
        let g = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        let mut opt = Adam::new(0.01, 0.1);
        for _ in 0..10 {
            let mut s = ParamSet::new();
            s.push(&mut p, &g);
            opt.step(&mut s);
        }
        assert_eq!(p.data()[0], 5.0);
        assert!(p.data()[1] < 5.0);
    }

    #[test]
    fn lr_override() {
        let mut opt = Sgd::new(0.1, 0.0, 0.0);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "param/grad shape mismatch")]
    fn mismatched_pair_panics() {
        let mut p = Tensor::zeros(&[2]);
        let g = Tensor::zeros(&[3]);
        let mut set = ParamSet::new();
        set.push(&mut p, &g);
    }
}
