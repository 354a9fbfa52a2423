//! Post-training int8 quantization: calibration, the frozen
//! [`QuantizedNet`] executor, and the [`Precision`] knob the serving
//! layer exposes.
//!
//! The flow is strictly **post-training, static, symmetric**:
//!
//! 1. [`calibrate`] runs the f32 network on a held-out batch and records
//!    the max magnitude of every quantization surface — each conv
//!    stage's input and the flattened FC input, per branch — giving one
//!    per-tensor activation scale each (`max/127`).
//! 2. [`QuantizedNet::from_net`] freezes the sub-network: every active
//!    weight window is quantized per output channel and pre-packed for
//!    the int8 GEMM; biases stay f32.
//! 3. Forward runs conv/FC in int8 (exact i32 accumulation, f32
//!    dequantizing epilogue); ReLU, max-pool, bias and the partial-logit
//!    sum stay in f32, which costs little and avoids requantization
//!    error between stages.
//!
//! Because the integer core is exact and the f32 glue is the same
//! deterministic kernels as the f32 path, a `QuantizedNet` is
//! bit-identical at any thread count and under any SIMD dispatch
//! decision. [`top1_agreement`] is the acceptance metric: the fraction of
//! examples whose argmax logit survives quantization (gate at ≥ 0.99 on
//! the calibration batch — see `docs/PERFORMANCE.md`).

use crate::arch::Arch;
use crate::network::ConvNet;
use crate::spec::SubnetSpec;
use fluid_nn::{Flatten, QuantConv2d, QuantLinear};
use fluid_tensor::quant::{max_abs, symmetric_scale};
use fluid_tensor::{Tensor, Workspace};

/// The numeric path a model executes in — the per-model serving knob
/// (`--precision f32|int8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// The full-precision reference path.
    F32,
    /// The post-training-quantized int8 path.
    Int8,
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(Precision::F32),
            "int8" => Ok(Precision::Int8),
            other => Err(format!(
                "unknown precision '{other}' (expected f32 or int8)"
            )),
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        })
    }
}

/// Per-branch activation scales from one calibration run.
#[derive(Debug, Clone)]
pub struct BranchCalibration {
    /// One symmetric scale per conv stage (that stage's *input* tensor).
    pub conv_scales: Vec<f32>,
    /// The flattened FC input's symmetric scale.
    pub fc_scale: f32,
}

/// Activation scales for every branch of a sub-network, aligned with
/// `spec.branches`.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Per-branch scales, in `spec.branches` order.
    pub branches: Vec<BranchCalibration>,
}

/// Rows per calibration forward: a serving batch's scale (the default
/// serving `max_batch` is 8, the benchmarked bursts use 16).
const CALIBRATION_CHUNK: usize = 16;

/// Runs the f32 sub-network on `batch` (a held-out calibration batch,
/// `[N, image_channels, side, side]`) and records one symmetric
/// per-tensor scale per quantization surface.
///
/// The batch is walked in chunks of at most 16 rows and the per-surface
/// maxima merged: `max` is exact and the forward is batch-invariant, so the
/// scales equal those of one pass over the whole batch, while the net's
/// workspace stays sized for a 16-row forward.
///
/// # Panics
///
/// Panics if the batch shape does not match the architecture.
pub fn calibrate(net: &mut ConvNet, spec: &SubnetSpec, batch: &Tensor) -> Calibration {
    let stages = net.arch().conv_stages;
    let mut chunk_dims = batch.dims().to_vec();
    let row_len = batch.data().len() / chunk_dims[0].max(1);
    let mut branches = Vec::with_capacity(spec.branches.len());
    for branch in &spec.branches {
        let mut maxima = vec![0.0f32; stages + 1];
        for rows in batch.data().chunks(CALIBRATION_CHUNK * row_len.max(1)) {
            chunk_dims[0] = rows.len() / row_len;
            let chunk = Tensor::from_vec(rows.to_vec(), &chunk_dims);
            let logits = net.forward_branch_observed(&chunk, branch, &mut |surface, t| {
                maxima[surface] = maxima[surface].max(max_abs(t.data()));
            });
            net.recycle(logits);
        }
        branches.push(BranchCalibration {
            conv_scales: maxima[..stages]
                .iter()
                .map(|&m| symmetric_scale(m))
                .collect(),
            fc_scale: symmetric_scale(maxima[stages]),
        });
    }
    Calibration { branches }
}

/// One frozen int8 branch: quantized convs plus the quantized FC window.
#[derive(Debug, Clone)]
struct QuantBranch {
    convs: Vec<QuantConv2d>,
    fc: QuantLinear,
}

/// A frozen int8 executor for one sub-network: the quantized twin of
/// running [`ConvNet::forward_subnet`] with a fixed [`SubnetSpec`].
///
/// Built from (and checkpoint-loadable via) an f32 net — see
/// [`QuantizedNet::from_net`]; weights are pre-packed at build time, so
/// steady-state forwards perform no quantization of weights and no heap
/// allocation.
#[derive(Debug, Clone)]
pub struct QuantizedNet {
    subnet: String,
    arch: Arch,
    branches: Vec<QuantBranch>,
    flatten: Flatten,
    ws: Workspace,
}

impl QuantizedNet {
    /// Freezes `spec` of the given f32 network into an int8 executor
    /// using the activation scales in `calib` (from [`calibrate`] on the
    /// same net and spec — typically right after loading the f32
    /// checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if `calib` does not align with `spec` or a scale is
    /// non-finite.
    pub fn from_net(net: &ConvNet, spec: &SubnetSpec, calib: &Calibration) -> Self {
        assert_eq!(
            calib.branches.len(),
            spec.branches.len(),
            "calibration has {} branches, spec '{}' has {}",
            calib.branches.len(),
            spec.name,
            spec.branches.len()
        );
        let arch = net.arch().clone();
        let mut ws = Workspace::new();
        let mut branches = Vec::with_capacity(spec.branches.len());
        for (branch, bc) in spec.branches.iter().zip(&calib.branches) {
            assert_eq!(
                bc.conv_scales.len(),
                arch.conv_stages,
                "calibration for branch '{}' has {} conv scales, arch has {} stages",
                branch.name,
                bc.conv_scales.len(),
                arch.conv_stages
            );
            let convs = (0..arch.conv_stages)
                .map(|stage| {
                    QuantConv2d::from_ranged(
                        &net.convs()[stage],
                        branch.in_range(stage, arch.image_channels),
                        branch.channels[stage],
                        bc.conv_scales[stage],
                        &mut ws,
                    )
                })
                .collect();
            let fc = QuantLinear::from_ranged(
                net.fc(),
                branch.fc_range(&arch),
                branch.fc_bias,
                bc.fc_scale,
                &mut ws,
            );
            branches.push(QuantBranch { convs, fc });
        }
        Self {
            subnet: spec.name.clone(),
            arch,
            branches,
            flatten: Flatten::new(),
            ws,
        }
    }

    /// The sub-network this executor was frozen from.
    pub fn subnet(&self) -> &str {
        &self.subnet
    }

    /// The architecture.
    pub fn arch(&self) -> &Arch {
        &self.arch
    }

    /// Runs the frozen sub-network, summing each branch's partial logits
    /// — the int8 twin of [`ConvNet::forward_subnet`].
    ///
    /// The logits are backed by this executor's scratch arena; hand them
    /// back with [`recycle`](QuantizedNet::recycle) once consumed.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, image_channels, side, side]`.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut logits: Option<Tensor> = None;
        for bi in 0..self.branches.len() {
            let partial = self.forward_branch(x, bi);
            logits = Some(match logits {
                None => partial,
                Some(mut acc) => {
                    acc.add_assign(&partial);
                    self.ws.recycle(partial);
                    acc
                }
            });
        }
        logits.expect("quantized sub-network with no branches")
    }

    fn forward_branch(&mut self, x: &Tensor, bi: usize) -> Tensor {
        let Self {
            branches,
            flatten,
            ws,
            ..
        } = self;
        let branch = &branches[bi];
        let mut h = ws.tensor_copy(x);
        for conv in &branch.convs {
            let next = conv.forward_stage_ws(&h, ws);
            ws.recycle(std::mem::replace(&mut h, next));
        }
        let flat = flatten.forward_ws(&h, false, ws);
        ws.recycle(h);
        let logits = branch.fc.forward_ws(&flat, ws);
        ws.recycle(flat);
        logits
    }

    /// Returns a tensor produced by this executor to its scratch arena.
    pub fn recycle(&mut self, t: Tensor) {
        self.ws.recycle(t);
    }
}

/// Fraction of rows (examples) on which two `[N, classes]` logit tensors
/// agree on the argmax — the quantization acceptance metric.
///
/// Ties break toward the lowest class index in both tensors, so an exact
/// copy always scores 1.0. Returns 1.0 for an empty batch.
///
/// # Panics
///
/// Panics if the tensors are not rank 2 with identical dims.
pub fn top1_agreement(a: &Tensor, b: &Tensor) -> f64 {
    assert_eq!(a.dims(), b.dims(), "logit shapes differ");
    assert_eq!(a.dims().len(), 2, "logits must be [N, classes]");
    let (n, c) = (a.dims()[0], a.dims()[1]);
    if n == 0 {
        return 1.0;
    }
    let argmax = |row: &[f32]| {
        row.iter()
            .enumerate()
            .fold((0usize, f32::NEG_INFINITY), |best, (i, &v)| {
                if v > best.1 {
                    (i, v)
                } else {
                    best
                }
            })
            .0
    };
    let mut same = 0usize;
    for i in 0..n {
        if argmax(&a.data()[i * c..(i + 1) * c]) == argmax(&b.data()[i * c..(i + 1) * c]) {
            same += 1;
        }
    }
    same as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BranchSpec;
    use fluid_nn::ChannelRange;
    use fluid_tensor::Prng;

    fn full_spec(arch: &Arch) -> SubnetSpec {
        SubnetSpec::single(BranchSpec::uniform(
            "full",
            ChannelRange::prefix(arch.ladder.max()),
            arch.conv_stages,
            true,
        ))
    }

    fn batch(arch: &Arch, n: usize, seed: u64) -> Tensor {
        fluid_tensor::kaiming_uniform(
            &[n, arch.image_channels, arch.image_side, arch.image_side],
            64,
            &mut Prng::new(seed),
        )
    }

    #[test]
    fn calibration_produces_positive_scales() {
        let arch = Arch::tiny();
        let mut net = ConvNet::new(arch.clone(), &mut Prng::new(0));
        let spec = full_spec(&arch);
        let calib = calibrate(&mut net, &spec, &batch(&arch, 4, 1));
        assert_eq!(calib.branches.len(), 1);
        let bc = &calib.branches[0];
        assert_eq!(bc.conv_scales.len(), arch.conv_stages);
        assert!(bc.conv_scales.iter().all(|&s| s > 0.0 && s.is_finite()));
        assert!(bc.fc_scale > 0.0);
    }

    #[test]
    fn chunked_calibration_matches_one_pass_and_bounds_the_workspace() {
        let arch = Arch::tiny();
        let net = ConvNet::new(arch.clone(), &mut Prng::new(9));
        let spec = full_spec(&arch);
        let rows = batch(&arch, 64, 4);

        let mut chunked = net.clone();
        let calib = calibrate(&mut chunked, &spec, &rows);
        let mut maxima = vec![0.0f32; arch.conv_stages + 1];
        net.clone()
            .forward_branch_observed(&rows, &spec.branches[0], &mut |surface, t| {
                maxima[surface] = maxima[surface].max(max_abs(t.data()));
            });
        let bc = &calib.branches[0];
        let got: Vec<u32> = bc
            .conv_scales
            .iter()
            .chain([&bc.fc_scale])
            .map(|s| s.to_bits())
            .collect();
        let want: Vec<u32> = maxima
            .iter()
            .map(|&m| symmetric_scale(m).to_bits())
            .collect();
        assert_eq!(got, want, "chunked scales differ from one pass");

        let mut small = net.clone();
        calibrate(&mut small, &spec, &batch(&arch, 16, 4));
        assert!(
            chunked.workspace_bytes() <= small.workspace_bytes(),
            "64 rows left {} workspace bytes, 16 rows {}",
            chunked.workspace_bytes(),
            small.workspace_bytes()
        );
    }

    #[test]
    fn quantized_net_tracks_f32_and_is_bit_stable() {
        let arch = Arch::tiny();
        let mut net = ConvNet::new(arch.clone(), &mut Prng::new(3));
        let spec = full_spec(&arch);
        let held_out = batch(&arch, 8, 11);
        let calib = calibrate(&mut net, &spec, &held_out);
        let mut qnet = QuantizedNet::from_net(&net, &spec, &calib);

        let want = net.forward_subnet(&held_out, &spec, false);
        let got = qnet.forward(&held_out);
        assert_eq!(got.dims(), want.dims());
        let scale = max_abs(want.data()).max(1.0);
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!(
                (g - w).abs() <= 0.08 * scale,
                "quantized logits drifted: {g} vs {w}"
            );
        }
        let again = qnet.forward(&held_out);
        assert_eq!(got.data(), again.data(), "int8 forward must be bit-stable");
    }

    #[test]
    fn multi_branch_subnet_quantizes_per_branch() {
        let arch = Arch::tiny(); // ladder max 8: lower 0..4, upper 4..8
        let mut net = ConvNet::new(arch.clone(), &mut Prng::new(5));
        let half = arch.ladder.max() / 2;
        let spec = SubnetSpec::collective(
            "combined",
            vec![
                BranchSpec::uniform("lower", ChannelRange::prefix(half), arch.conv_stages, true),
                BranchSpec::uniform(
                    "upper",
                    ChannelRange::new(half, arch.ladder.max()),
                    arch.conv_stages,
                    false,
                ),
            ],
        );
        let held_out = batch(&arch, 6, 21);
        let calib = calibrate(&mut net, &spec, &held_out);
        assert_eq!(calib.branches.len(), 2);
        let mut qnet = QuantizedNet::from_net(&net, &spec, &calib);
        let want = net.forward_subnet(&held_out, &spec, false);
        let got = qnet.forward(&held_out);
        let scale = max_abs(want.data()).max(1.0);
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() <= 0.1 * scale, "combined drifted: {g} vs {w}");
        }
    }

    #[test]
    fn top1_agreement_counts_matching_argmax_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 0.0, 5.0, 1.0, 0.0], &[2, 3]);
        let b = Tensor::from_vec(vec![0.0, 9.0, 1.0, 0.0, 8.0, 0.0], &[2, 3]);
        assert_eq!(top1_agreement(&a, &a), 1.0);
        assert_eq!(top1_agreement(&a, &b), 0.5);
    }
}
