//! The shared 3-conv + 1-FC network executor.

use crate::arch::Arch;
use crate::spec::{BranchSpec, SubnetSpec};
use fluid_nn::{Flatten, MaxPool2d, ParamSet, RangedConv2d, RangedLinear, Relu};
use fluid_tensor::{Prng, Tensor, Workspace};

/// The paper's CNN: `conv_stages` × (RangedConv2d → ReLU → MaxPool 2×2),
/// then Flatten and a [`RangedLinear`] classifier head.
///
/// A `ConvNet` holds **full-width** weights; which channels execute is
/// decided per call by a [`BranchSpec`] or [`SubnetSpec`]. The three model
/// families in this crate are thin wrappers that pair one `ConvNet` with a
/// family-specific set of specs.
#[derive(Debug, Clone)]
pub struct ConvNet {
    arch: Arch,
    convs: Vec<RangedConv2d>,
    relus: Vec<Relu>,
    pools: Vec<MaxPool2d>,
    flatten: Flatten,
    fc: RangedLinear,
    /// Per-executor scratch arena: every layer's intermediates are drawn
    /// from and recycled into this pool, so steady-state forward/backward
    /// passes stop allocating. Cloning a net starts with a fresh arena.
    ws: Workspace,
}

impl ConvNet {
    /// Creates a network with fresh random weights.
    pub fn new(arch: Arch, rng: &mut Prng) -> Self {
        let max = arch.ladder.max();
        let mut convs = Vec::with_capacity(arch.conv_stages);
        for stage in 0..arch.conv_stages {
            let c_in = if stage == 0 { arch.image_channels } else { max };
            convs.push(RangedConv2d::new(
                max,
                c_in,
                arch.kernel,
                1,
                arch.kernel / 2,
                &mut rng.fork(stage as u64 + 1),
            ));
        }
        let relus = (0..arch.conv_stages).map(|_| Relu::new()).collect();
        let pools = (0..arch.conv_stages)
            .map(|_| MaxPool2d::new(2, 2))
            .collect();
        let fc = RangedLinear::new(arch.classes, arch.fc_in_max(), &mut rng.fork(100));
        Self {
            arch,
            convs,
            relus,
            pools,
            flatten: Flatten::new(),
            fc,
            ws: Workspace::new(),
        }
    }

    /// The architecture.
    pub fn arch(&self) -> &Arch {
        &self.arch
    }

    /// The conv layers (read access, e.g. for partial weight deployment).
    pub fn convs(&self) -> &[RangedConv2d] {
        &self.convs
    }

    /// Mutable conv layers.
    pub fn convs_mut(&mut self) -> &mut [RangedConv2d] {
        &mut self.convs
    }

    /// The FC head.
    pub fn fc(&self) -> &RangedLinear {
        &self.fc
    }

    /// Mutable FC head.
    pub fn fc_mut(&mut self) -> &mut RangedLinear {
        &mut self.fc
    }

    /// Runs one branch, returning its **partial** logits (`[N, classes]`).
    ///
    /// With `train` set, every layer runs on its own and caches what
    /// [`backward_branch`](ConvNet::backward_branch) needs (the ReLU mask,
    /// the pool's argmax table); without it this is
    /// [`forward_branch_observed`](ConvNet::forward_branch_observed) with
    /// nothing observing.
    ///
    /// # Panics
    ///
    /// Panics if the branch's stage count disagrees with the architecture
    /// or `x` is not `[N, image_channels, side, side]`.
    pub fn forward_branch(&mut self, x: &Tensor, branch: &BranchSpec, train: bool) -> Tensor {
        if !train {
            return self.forward_branch_observed(x, branch, &mut |_, _| {});
        }
        self.check_stages(branch);
        let Self {
            arch,
            convs,
            relus,
            pools,
            flatten,
            fc,
            ws,
        } = self;
        let mut h = ws.tensor_copy(x);
        for stage in 0..arch.conv_stages {
            let in_range = branch.in_range(stage, arch.image_channels);
            let out_range = branch.channels[stage];
            let next = convs[stage].forward_ws(&h, in_range, out_range, true, ws);
            ws.recycle(std::mem::replace(&mut h, next));
            let next = relus[stage].forward_ws(&h, true, ws);
            ws.recycle(std::mem::replace(&mut h, next));
            let next = pools[stage].forward_ws(&h, true, ws);
            ws.recycle(std::mem::replace(&mut h, next));
        }
        let flat = flatten.forward_ws(&h, true, ws);
        ws.recycle(h);
        let logits = fc.forward_ws(&flat, branch.fc_range(arch), branch.fc_bias, true, ws);
        ws.recycle(flat);
        logits
    }

    /// Runs one branch in inference mode — the one inference
    /// implementation. Each conv stage is a single fused pass
    /// ([`RangedConv2d::forward_stage_ws`]: conv → bias → ReLU → the 2×2
    /// max-pool [`ConvNet::new`] builds), equal element for element to the
    /// layer chain of a training forward. `observe` is invoked with every
    /// quantization surface: `(stage, input)` for each conv stage's input
    /// activations and `(conv_stages, input)` for the flattened FC input —
    /// the calibration hook for the int8 path (see [`crate::calibrate`]).
    ///
    /// # Panics
    ///
    /// As for [`forward_branch`](ConvNet::forward_branch).
    pub fn forward_branch_observed(
        &mut self,
        x: &Tensor,
        branch: &BranchSpec,
        observe: &mut dyn FnMut(usize, &Tensor),
    ) -> Tensor {
        self.check_stages(branch);
        let Self {
            arch,
            convs,
            fc,
            ws,
            ..
        } = self;
        let mut h = ws.tensor_copy(x);
        for (stage, conv) in convs.iter().enumerate() {
            observe(stage, &h);
            let in_range = branch.in_range(stage, arch.image_channels);
            let next = conv.forward_stage_ws(&h, in_range, branch.channels[stage], ws);
            ws.recycle(std::mem::replace(&mut h, next));
        }
        let d = h.dims();
        let flat = [d[0], d[1] * d[2] * d[3]];
        h.reshape_in_place(&flat);
        observe(arch.conv_stages, &h);
        let logits = fc.forward_ws(&h, branch.fc_range(arch), branch.fc_bias, false, ws);
        ws.recycle(h);
        logits
    }

    fn check_stages(&self, branch: &BranchSpec) {
        assert_eq!(
            branch.channels.len(),
            self.arch.conv_stages,
            "branch {} has {} stages, arch has {}",
            branch.name,
            branch.channels.len(),
            self.arch.conv_stages
        );
    }

    /// Backpropagates one branch given `dL/d(partial logits)`.
    ///
    /// Must be called in reverse order of the branch forwards of the same
    /// step (layer caches are LIFO stacks).
    pub fn backward_branch(&mut self, grad_logits: &Tensor) {
        let Self {
            arch,
            convs,
            relus,
            pools,
            flatten,
            fc,
            ws,
        } = self;
        let mut g = fc.backward_ws(grad_logits, ws);
        let next = flatten.backward_ws(&g, ws);
        ws.recycle(std::mem::replace(&mut g, next));
        for stage in (0..arch.conv_stages).rev() {
            let next = pools[stage].backward_ws(&g, ws);
            ws.recycle(std::mem::replace(&mut g, next));
            let next = relus[stage].backward_ws(&g, ws);
            ws.recycle(std::mem::replace(&mut g, next));
            let next = convs[stage].backward_ws(&g, ws);
            ws.recycle(std::mem::replace(&mut g, next));
        }
        ws.recycle(g);
    }

    /// Runs a full sub-network: evaluates every branch on the same input and
    /// sums the partial logits.
    ///
    /// The returned logits are backed by this executor's scratch arena;
    /// hand them back with [`recycle`](ConvNet::recycle) once consumed and
    /// a steady-state pass performs no heap allocation at all.
    pub fn forward_subnet(&mut self, x: &Tensor, subnet: &SubnetSpec, train: bool) -> Tensor {
        let mut logits: Option<Tensor> = None;
        for branch in &subnet.branches {
            let partial = self.forward_branch(x, branch, train);
            logits = Some(match logits {
                None => partial,
                Some(mut acc) => {
                    // In-place merge: same additions as `add`, no fresh
                    // output buffer.
                    acc.add_assign(&partial);
                    self.ws.recycle(partial);
                    acc
                }
            });
        }
        logits.expect("sub-network with no branches")
    }

    /// Returns a tensor produced by this executor (logits, gradients) to
    /// its scratch arena for reuse by later passes.
    pub fn recycle(&mut self, t: Tensor) {
        self.ws.recycle(t);
    }

    /// The executor's scratch arena, for callers that thread their own
    /// workspace-backed buffers through a step (e.g. a loss's `_ws`
    /// variant between forward and backward).
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    /// Backpropagates a full sub-network. Because the logits are a sum of
    /// partials, every branch receives the same `grad_logits`; branches are
    /// walked in reverse forward order to match the LIFO layer caches.
    pub fn backward_subnet(&mut self, grad_logits: &Tensor, subnet: &SubnetSpec) {
        for _branch in subnet.branches.iter().rev() {
            self.backward_branch(grad_logits);
        }
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for conv in &mut self.convs {
            conv.zero_grad();
        }
        self.fc.zero_grad();
    }

    /// Collects `(param, grad)` pairs, in a stable order, for an optimizer
    /// step.
    pub fn param_set(&mut self) -> ParamSet<'_> {
        let mut set = ParamSet::new();
        for conv in &mut self.convs {
            for (p, g) in conv.params_and_grads_mut() {
                set.push(p, g);
            }
        }
        for (p, g) in self.fc.params_and_grads_mut() {
            set.push(p, g);
        }
        set
    }

    /// Bytes currently pooled in the executor's scratch arena (diagnostic;
    /// grows to a steady high-water mark after the first step and then
    /// stays flat).
    pub fn workspace_bytes(&self) -> usize {
        self.ws.bytes_held()
    }

    /// Total parameter count of the full-width network.
    pub fn total_params(&self) -> usize {
        let mut n = 0;
        for conv in &self.convs {
            n += conv.weight().numel() + conv.bias().numel();
        }
        n + self.fc.weight().numel() + self.fc.bias().numel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluid_nn::ChannelRange;

    fn lower(r: ChannelRange, stages: usize, bias: bool, name: &str) -> BranchSpec {
        BranchSpec::uniform(name, r, stages, bias)
    }

    #[test]
    fn forward_full_width_shape() {
        let arch = Arch::paper();
        let mut net = ConvNet::new(arch.clone(), &mut Prng::new(0));
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        let spec = SubnetSpec::single(lower(ChannelRange::prefix(16), 3, true, "full"));
        let y = net.forward_subnet(&x, &spec, false);
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn decomposition_invariant_holds() {
        // Fluid HA-mode correctness: combined logits == sum of branch
        // partials computed independently. This is the paper's core
        // mechanism, so we check exact float equality of the composition.
        let arch = Arch::paper();
        let mut net = ConvNet::new(arch.clone(), &mut Prng::new(7));
        let x = Tensor::from_fn(&[3, 1, 28, 28], |i| ((i % 97) as f32) / 97.0);

        let lo = lower(ChannelRange::new(0, 8), 3, true, "lower50");
        let hi = lower(ChannelRange::new(8, 16), 3, false, "upper50");
        let combined = SubnetSpec::collective("combined100", vec![lo.clone(), hi.clone()]);

        let joint = net.forward_subnet(&x, &combined, false);
        let p_lo = net.forward_branch(&x, &lo, false);
        let p_hi = net.forward_branch(&x, &hi, false);
        let merged = p_lo.add(&p_hi);
        assert!(
            joint.allclose(&merged, 1e-6),
            "diff {}",
            joint.max_abs_diff(&merged)
        );
    }

    #[test]
    fn branch_isolation_upper_ignores_lower_weights() {
        // Mutating lower-block weights must not change the upper branch's
        // output: the property that lets the Worker survive Master failure.
        let arch = Arch::paper();
        let mut net = ConvNet::new(arch.clone(), &mut Prng::new(3));
        let x = Tensor::from_fn(&[1, 1, 28, 28], |i| ((i * 31 % 101) as f32) / 101.0);
        let hi = lower(ChannelRange::new(8, 16), 3, true, "upper50");
        let before = net.forward_branch(&x, &hi, false);

        // Scramble everything in the lower block of every conv, and the
        // lower FC columns.
        for conv in net.convs_mut() {
            let ci_max = conv.c_in_max();
            let kk = conv.kernel() * conv.kernel();
            for co in 0..8 {
                for ci in 0..ci_max {
                    for t in 0..kk {
                        let idx = (co * ci_max + ci) * kk + t;
                        conv.weight_mut().data_mut()[idx] += 100.0;
                    }
                }
            }
        }
        let fpc = arch.features_per_channel();
        let in_max = net.fc().in_features_max();
        for r in 0..arch.classes {
            for c in 0..8 * fpc {
                net.fc_mut().weight_mut().data_mut()[r * in_max + c] += 100.0;
            }
        }
        let after = net.forward_branch(&x, &hi, false);
        assert!(
            before.allclose(&after, 0.0),
            "upper branch depends on lower weights"
        );
    }

    #[test]
    fn training_reduces_loss_full_model() {
        use fluid_nn::{softmax_cross_entropy, Optimizer, Sgd};
        let arch = Arch::tiny();
        let mut net = ConvNet::new(arch.clone(), &mut Prng::new(5));
        let spec = SubnetSpec::single(lower(ChannelRange::prefix(8), 2, true, "full"));
        let x = Tensor::from_fn(&[8, 1, 14, 14], |i| ((i * 17 % 113) as f32) / 113.0);
        let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
        let mut opt = Sgd::new(0.05, 0.9, 0.0);

        let logits0 = net.forward_subnet(&x, &spec, false);
        let (loss0, _) = softmax_cross_entropy(&logits0, &labels);
        for _ in 0..30 {
            net.zero_grad();
            let logits = net.forward_subnet(&x, &spec, true);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            net.backward_subnet(&grad, &spec);
            let mut params = net.param_set();
            opt.step(&mut params);
        }
        let logits1 = net.forward_subnet(&x, &spec, false);
        let (loss1, _) = softmax_cross_entropy(&logits1, &labels);
        assert!(loss1 < loss0 * 0.5, "loss {loss0} -> {loss1}");
    }

    #[test]
    fn combined_training_backward_runs() {
        use fluid_nn::softmax_cross_entropy;
        let arch = Arch::tiny();
        let mut net = ConvNet::new(arch.clone(), &mut Prng::new(6));
        let lo = lower(ChannelRange::new(0, 4), 2, true, "lower50");
        let hi = lower(ChannelRange::new(4, 8), 2, false, "upper50");
        let combined = SubnetSpec::collective("combined100", vec![lo, hi]);
        let x = Tensor::from_fn(&[4, 1, 14, 14], |i| (i as f32 * 0.01).sin().abs());
        let labels = vec![0usize, 1, 2, 3];
        net.zero_grad();
        let logits = net.forward_subnet(&x, &combined, true);
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        net.backward_subnet(&grad, &combined);
        // Both blocks must have received gradient.
        let wg_sum: f32 = net.convs()[0].wgrad_sq_norm();
        assert!(wg_sum > 0.0);
    }

    #[test]
    fn workspace_reaches_steady_state_and_stays_exact() {
        // After a warm-up step the scratch arena should stop growing, and
        // reusing dirty buffers must not perturb results: a fresh clone
        // (empty arena) computes bit-identical logits.
        let arch = Arch::tiny();
        let mut net = ConvNet::new(arch.clone(), &mut Prng::new(9));
        let spec = SubnetSpec::single(lower(ChannelRange::prefix(8), 2, true, "full"));
        let x = Tensor::from_fn(&[4, 1, 14, 14], |i| ((i * 7 % 61) as f32) / 61.0);

        // Warm-up passes: the first populates the arena, the next ones let
        // the size classes settle (the returned logits buffer churns one
        // class per pass until its own class exists).
        let warm = net.forward_subnet(&x, &spec, false);
        let first = warm.clone();
        net.ws.recycle(warm);
        for _ in 0..2 {
            let warm = net.forward_subnet(&x, &spec, false);
            net.ws.recycle(warm);
        }
        let high_water = net.workspace_bytes();
        assert!(high_water > 0, "forward must populate the arena");
        for _ in 0..3 {
            let again = net.forward_subnet(&x, &spec, false);
            assert!(first.allclose(&again, 0.0), "reuse changed the output");
            net.ws.recycle(again);
        }
        assert_eq!(
            net.workspace_bytes(),
            high_water,
            "steady-state inference must not grow the arena"
        );
        let mut fresh = net.clone();
        assert_eq!(fresh.workspace_bytes(), 0, "clone starts empty");
        let clean = fresh.forward_subnet(&x, &spec, false);
        assert!(first.allclose(&clean, 0.0));
    }

    #[test]
    fn total_params_paper_scale() {
        let net = ConvNet::new(Arch::paper(), &mut Prng::new(0));
        // conv1: 16*1*9+16, conv2/3: 16*16*9+16, fc: 10*144+10
        let expected = (16 * 9 + 16) + 2 * (16 * 16 * 9 + 16) + (10 * 144 + 10);
        assert_eq!(net.total_params(), expected);
    }
}
