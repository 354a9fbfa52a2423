//! Range-sliceable 2-D convolution with hand-written backprop.
//!
//! Forward and weight-gradient passes run as **implicit GEMM**: the
//! `im2col` patch matrix is never materialised (see [`PatchMatrix`]). A
//! stride-1 forward reads it in place from a zero-bordered copy of the
//! input; the weight gradient (and any other stride) gathers cache-sized
//! blocks of it straight from the image while the GEMM engine packs. The
//! remaining intermediates (weight windows, GEMM outputs, layout-reorder
//! buffers) are drawn from a [`Workspace`] in the `_ws` entry points, so
//! steady-state training and inference perform no heap allocation at all.

use crate::range::ChannelRange;
use fluid_tensor::{
    col2im_ws, conv_gemm_dw_ws, conv_gemm_fwd_ws, kaiming_normal, pool, Conv2dGeometry,
    PatchMatrix, Prng, Tensor, Workspace,
};
// (im2col stays exported from fluid-tensor for direct use; the conv layer
// itself no longer materialises the patch matrix.)

/// A 2-D convolution whose weight tensor `[C_out_max, C_in_max, K, K]` can be
/// executed on any `(in_range, out_range)` channel window.
///
/// - **Static** models use the full ranges.
/// - **Dynamic** (slimmable) models use prefix ranges `0..w`.
/// - **Fluid** branches use block ranges (e.g. `8..16 × 8..16` for the
///   upper-50% branch), which keeps the upper weights free of any
///   dependency on lower-channel activations.
///
/// Gradients accumulate into internal `wgrad`/`bgrad` tensors that are zero
/// outside the trained window, so optimizers can masked-update safely.
#[derive(Debug, Clone)]
pub struct RangedConv2d {
    weight: Tensor,
    bias: Tensor,
    wgrad: Tensor,
    bgrad: Tensor,
    c_out_max: usize,
    c_in_max: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    cache: Vec<ConvCache>,
}

#[derive(Debug, Clone)]
struct ConvCache {
    /// A workspace-backed copy of the forward input — far smaller than the
    /// patch matrix it replaces (the backward pass re-gathers patches from
    /// it implicitly).
    input: Tensor,
    in_range: ChannelRange,
    out_range: ChannelRange,
    geo: Conv2dGeometry,
    batch: usize,
}

impl RangedConv2d {
    /// Creates a conv layer with Kaiming-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new(
        c_out_max: usize,
        c_in_max: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut Prng,
    ) -> Self {
        assert!(c_out_max > 0 && c_in_max > 0 && kernel > 0 && stride > 0);
        let fan_in = c_in_max * kernel * kernel;
        Self {
            weight: kaiming_normal(&[c_out_max, c_in_max, kernel, kernel], fan_in, rng),
            bias: Tensor::zeros(&[c_out_max]),
            wgrad: Tensor::zeros(&[c_out_max, c_in_max, kernel, kernel]),
            bgrad: Tensor::zeros(&[c_out_max]),
            c_out_max,
            c_in_max,
            kernel,
            stride,
            pad,
            cache: Vec::new(),
        }
    }

    /// Maximum output channels.
    pub fn c_out_max(&self) -> usize {
        self.c_out_max
    }

    /// Maximum input channels.
    pub fn c_in_max(&self) -> usize {
        self.c_in_max
    }

    /// Kernel extent.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// The full weight tensor (for serialization / inspection).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable weight tensor (for loading checkpoints / partial deploys).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable bias vector.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.bias
    }

    /// Convolution stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding on each side.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Extracts the weight window `[out_range × in_range]` as a
    /// `[out_w, in_w·K·K]` matrix, backed by a workspace buffer.
    pub(crate) fn weight_window(
        &self,
        in_range: ChannelRange,
        out_range: ChannelRange,
        ws: &mut Workspace,
    ) -> Tensor {
        let kk = self.kernel * self.kernel;
        let in_w = in_range.width();
        let out_w = out_range.width();
        let mut out = ws.tensor_zeroed(&[out_w, in_w * kk]);
        let row_stride = self.c_in_max * kk;
        for (r, co) in (out_range.lo..out_range.hi).enumerate() {
            let src = co * row_stride + in_range.lo * kk;
            out.data_mut()[r * in_w * kk..(r + 1) * in_w * kk]
                .copy_from_slice(&self.weight.data()[src..src + in_w * kk]);
        }
        out
    }

    /// Accumulates a `[out_w, in_w·K·K]` gradient into the full `wgrad`.
    fn scatter_wgrad(&mut self, g: &Tensor, in_range: ChannelRange, out_range: ChannelRange) {
        let kk = self.kernel * self.kernel;
        let in_w = in_range.width();
        let row_stride = self.c_in_max * kk;
        for (r, co) in (out_range.lo..out_range.hi).enumerate() {
            let dst = co * row_stride + in_range.lo * kk;
            let src_row = &g.data()[r * in_w * kk..(r + 1) * in_w * kk];
            for (d, s) in self.wgrad.data_mut()[dst..dst + in_w * kk]
                .iter_mut()
                .zip(src_row)
            {
                *d += s;
            }
        }
    }

    /// Runs the convolution on the channel window.
    ///
    /// `x` must already be sliced to `in_range.width()` channels — the layer
    /// addresses its *weights* by the absolute range but reads the input as
    /// given (the caller controls which activations exist on this device).
    ///
    /// Set `train` to cache activations for a following [`backward`].
    ///
    /// # Panics
    ///
    /// Panics if the ranges exceed the layer's maxima, the input channel
    /// count differs from `in_range.width()`, or `x` is not rank 4.
    ///
    /// [`backward`]: RangedConv2d::backward
    pub fn forward(
        &mut self,
        x: &Tensor,
        in_range: ChannelRange,
        out_range: ChannelRange,
        train: bool,
    ) -> Tensor {
        self.forward_ws(x, in_range, out_range, train, &mut Workspace::new())
    }

    /// [`forward`](RangedConv2d::forward) with scratch drawn from (and
    /// recycled into) `ws`; after the first call a steady-state step
    /// performs no fresh scratch allocations.
    ///
    /// # Panics
    ///
    /// As for [`forward`](RangedConv2d::forward).
    pub fn forward_ws(
        &mut self,
        x: &Tensor,
        in_range: ChannelRange,
        out_range: ChannelRange,
        train: bool,
        ws: &mut Workspace,
    ) -> Tensor {
        let (out_mat, geo, n) = self.gemm_ws(x, in_range, out_range, ws);
        let bias = &self.bias.data()[out_range.lo..out_range.hi];
        let out = cnp_to_nchw_bias(out_mat.data(), bias, n, geo.out_h(), geo.out_w(), ws);
        ws.recycle(out_mat);
        if train {
            self.cache.push(ConvCache {
                input: ws.tensor_copy(x),
                in_range,
                out_range,
                geo,
                batch: n,
            });
        }
        out
    }

    /// One inference stage in one pass: this convolution, its bias, ReLU
    /// and a 2×2 / stride-2 max-pool, returning `[N, out_w, OH/2, OW/2]`.
    /// Equal, element for element, to `forward_ws(.., false)` →
    /// [`Relu`](crate::Relu) → [`MaxPool2d::new(2, 2)`](crate::MaxPool2d),
    /// the sign of an exact zero aside: adding the bias and ReLU are
    /// monotone, so they commute with the window max. It caches nothing,
    /// so there is no matching backward.
    ///
    /// # Panics
    ///
    /// As for [`forward`](RangedConv2d::forward), and if the conv output
    /// plane is smaller than the 2×2 window.
    pub fn forward_stage_ws(
        &self,
        x: &Tensor,
        in_range: ChannelRange,
        out_range: ChannelRange,
        ws: &mut Workspace,
    ) -> Tensor {
        let (out_mat, geo, n) = self.gemm_ws(x, in_range, out_range, ws);
        let bias = &self.bias.data()[out_range.lo..out_range.hi];
        let out = stage_epilogue(out_mat.data(), bias, n, geo.out_h(), geo.out_w(), ws);
        ws.recycle(out_mat);
        out
    }

    /// Validates the window and runs the implicit GEMM — the patch matrix
    /// is read from `x`'s zero-bordered copy (stride 1) or gathered while
    /// the engine packs, never materialised. Returns the `[out_w, N·P]`
    /// product, the geometry and the batch size.
    fn gemm_ws(
        &self,
        x: &Tensor,
        in_range: ChannelRange,
        out_range: ChannelRange,
        ws: &mut Workspace,
    ) -> (Tensor, Conv2dGeometry, usize) {
        assert!(
            in_range.fits(self.c_in_max),
            "in_range {in_range} exceeds {}",
            self.c_in_max
        );
        assert!(
            out_range.fits(self.c_out_max),
            "out_range {out_range} exceeds {}",
            self.c_out_max
        );
        let d = x.dims();
        assert_eq!(d.len(), 4, "conv input rank {}", d.len());
        assert_eq!(
            d[1],
            in_range.width(),
            "input has {} channels but in_range is {in_range}",
            d[1]
        );
        let (n, h, w) = (d[0], d[2], d[3]);
        let geo = Conv2dGeometry::new(h, w, self.kernel, self.stride, self.pad);
        let patches = PatchMatrix::new(x.data(), n, in_range.width(), geo);
        let wmat = self.weight_window(in_range, out_range, ws);
        let out_mat = conv_gemm_fwd_ws(&wmat, &patches, ws);
        ws.recycle(wmat);
        (out_mat, geo, n)
    }

    /// Backpropagates through the last `forward(.., train = true)` call.
    ///
    /// Accumulates weight/bias gradients (within the active window only) and
    /// returns the gradient with respect to the input.
    ///
    /// # Panics
    ///
    /// Panics if no training forward pass has been cached or `grad_out` has
    /// the wrong shape.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_ws(grad_out, &mut Workspace::new())
    }

    /// [`backward`](RangedConv2d::backward) with scratch drawn from (and
    /// recycled into) `ws`, including the input copy cached by the
    /// matching training forward pass.
    ///
    /// # Panics
    ///
    /// As for [`backward`](RangedConv2d::backward).
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let cache = self.cache.pop().expect("backward without cached forward");
        let ConvCache {
            input,
            in_range,
            out_range,
            geo,
            batch,
        } = cache;
        let d = grad_out.dims();
        assert_eq!(
            d,
            [batch, out_range.width(), geo.out_h(), geo.out_w()],
            "grad_out shape {:?} mismatch",
            d
        );
        let g_mat = nchw_to_cnp(grad_out, ws); // [out_w, N*P]
                                               // dW = g · patchesᵀ (implicit GEMM over the cached input)
        let patches = PatchMatrix::new(input.data(), batch, in_range.width(), geo);
        let wg = conv_gemm_dw_ws(&g_mat, &patches, ws);
        self.scatter_wgrad(&wg, in_range, out_range);
        ws.recycle(wg);
        // db = per-channel sum
        let bg = grad_out.sum_per_channel_ws(ws);
        for (i, co) in (out_range.lo..out_range.hi).enumerate() {
            self.bgrad.data_mut()[co] += bg.data()[i];
        }
        ws.recycle(bg);
        // dX = Wᵀ · g, folded back to image space.
        let wmat = self.weight_window(in_range, out_range, ws);
        let g_cols = wmat.view().t().matmul_ws(&g_mat.view(), ws); // [in_w*K*K, N*P]
        ws.recycle(wmat);
        ws.recycle(g_mat);
        ws.recycle(input);
        let gin = col2im_ws(&g_cols, &geo, in_range.width(), batch, ws);
        ws.recycle(g_cols);
        gin
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.wgrad.fill(0.0);
        self.bgrad.fill(0.0);
    }

    /// Visits `(param, grad)` pairs for the optimizer.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.weight, &self.wgrad);
        f(&mut self.bias, &self.bgrad);
    }

    /// Splits into `[(weight, weight-grad), (bias, bias-grad)]` reference
    /// pairs for an optimizer step.
    pub fn params_and_grads_mut(&mut self) -> [(&mut Tensor, &Tensor); 2] {
        [
            (&mut self.weight, &self.wgrad),
            (&mut self.bias, &self.bgrad),
        ]
    }

    /// Squared L2 norm of the accumulated weight gradient (diagnostics).
    pub fn wgrad_sq_norm(&self) -> f32 {
        self.wgrad.sq_norm()
    }

    /// Mutable access to the accumulated weight gradient (used by freezing
    /// strategies that clear gradients before the optimizer step).
    pub fn wgrad_mut(&mut self) -> &mut Tensor {
        &mut self.wgrad
    }

    /// Mutable access to the accumulated bias gradient.
    pub fn bgrad_mut(&mut self) -> &mut Tensor {
        &mut self.bgrad
    }

    /// Number of parameters in a `(in_range, out_range)` window, bias included.
    pub fn window_param_count(&self, in_range: ChannelRange, out_range: ChannelRange) -> usize {
        out_range.width() * in_range.width() * self.kernel * self.kernel + out_range.width()
    }

    /// Multiply-accumulate count for one image of `h`×`w` input through the
    /// given window.
    pub fn window_macs(
        &self,
        in_range: ChannelRange,
        out_range: ChannelRange,
        h: usize,
        w: usize,
    ) -> u64 {
        let geo = Conv2dGeometry::new(h, w, self.kernel, self.stride, self.pad);
        (out_range.width() * in_range.width() * self.kernel * self.kernel) as u64
            * geo.out_positions() as u64
    }
}

/// Planes per pool task in the two conv epilogues below.
const PLANE_GRAIN: usize = 8;

/// Reorders a conv GEMM's `[C, N·P]` output into `[N, C, OH, OW]`, adding
/// `bias[c]` on the way (`C = bias.len()`). Each output plane is written by
/// one task, so the result is the same at any thread count.
pub(crate) fn cnp_to_nchw_bias(
    m: &[f32],
    bias: &[f32],
    n: usize,
    oh: usize,
    ow: usize,
    ws: &mut Workspace,
) -> Tensor {
    let (c, p) = (bias.len(), oh * ow);
    let mut out = ws.take_dirty(n * c * p); // fully overwritten
    if p > 0 {
        pool::parallel_rows_mut(&mut out, p, PLANE_GRAIN, |planes, block| {
            for (dst, plane) in block.chunks_exact_mut(p).zip(planes) {
                let (ni, ci) = (plane / c, plane % c);
                let b = bias[ci];
                for (d, &v) in dst.iter_mut().zip(&m[(ci * n + ni) * p..][..p]) {
                    *d = v + b;
                }
            }
        });
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// The inference epilogue of a conv stage: reads a conv GEMM's `[C, N·P]`
/// output once and writes `relu(max_2×2(x) + bias[c])` as
/// `[N, C, OH/2, OW/2]` once (odd extents truncate, as in `MaxPool2d`).
///
/// `x ↦ fl(x + b)` and `relu` are monotone, so they commute with the
/// window max: the result equals bias → ReLU → max-pool run layer by layer
/// (the sign of an exact zero aside) with a quarter of the bias adds and
/// no intermediate tensor. The window is scanned in `MaxPool2d`'s order
/// with its `>` test, and each output plane is written by one task.
///
/// # Panics
///
/// Panics if the plane is smaller than the window.
pub(crate) fn stage_epilogue(
    m: &[f32],
    bias: &[f32],
    n: usize,
    oh: usize,
    ow: usize,
    ws: &mut Workspace,
) -> Tensor {
    let (c, p) = (bias.len(), oh * ow);
    let (ph, pw) = (oh / 2, ow / 2);
    assert!(
        ph > 0 && pw > 0,
        "conv output {oh}x{ow} smaller than pool window 2"
    );
    let mut out = ws.take_dirty(n * c * ph * pw); // fully overwritten
    pool::parallel_rows_mut(&mut out, ph * pw, PLANE_GRAIN, |planes, block| {
        for (dst, plane) in block.chunks_exact_mut(ph * pw).zip(planes) {
            let (ni, ci) = (plane / c, plane % c);
            let b = bias[ci];
            let src = &m[(ci * n + ni) * p..][..p];
            for (drow, rows) in dst.chunks_exact_mut(pw).zip(src.chunks_exact(2 * ow)) {
                let (top, bottom) = (&rows[..2 * pw], &rows[ow..][..2 * pw]);
                for ((d, t), u) in drow
                    .iter_mut()
                    .zip(top.chunks_exact(2))
                    .zip(bottom.chunks_exact(2))
                {
                    let mut best = f32::NEG_INFINITY;
                    for v in [t[0], t[1], u[0], u[1]] {
                        if v > best {
                            best = v;
                        }
                    }
                    *d = (best + b).max(0.0);
                }
            }
        }
    });
    Tensor::from_vec(out, &[n, c, ph, pw])
}

/// Reorders `[N, C, OH, OW]` into `[C, N·P]` (workspace-backed).
fn nchw_to_cnp(t: &Tensor, ws: &mut Workspace) -> Tensor {
    let d = t.dims();
    let (n, c, oh, ow) = (d[0], d[1], d[2], d[3]);
    let p = oh * ow;
    let mut out = ws.tensor_zeroed(&[c, n * p]);
    for ni in 0..n {
        for ci in 0..c {
            let src = (ni * c + ci) * p;
            let dst = ci * (n * p) + ni * p;
            out.data_mut()[dst..dst + p].copy_from_slice(&t.data()[src..src + p]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::max_relative_error;

    fn full(c: usize) -> ChannelRange {
        ChannelRange::prefix(c)
    }

    #[test]
    fn forward_shape_full_width() {
        let mut rng = Prng::new(0);
        let mut conv = RangedConv2d::new(8, 3, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[2, 3, 10, 10]);
        let y = conv.forward(&x, full(3), full(8), false);
        assert_eq!(y.dims(), &[2, 8, 10, 10]);
    }

    #[test]
    fn forward_shape_block_range() {
        let mut rng = Prng::new(0);
        let mut conv = RangedConv2d::new(16, 16, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[1, 8, 6, 6]);
        let y = conv.forward(
            &x,
            ChannelRange::new(8, 16),
            ChannelRange::new(8, 16),
            false,
        );
        assert_eq!(y.dims(), &[1, 8, 6, 6]);
    }

    #[test]
    fn prefix_window_matches_manual_slice() {
        // Running the 0..4 window must equal a dense conv built from the
        // corresponding weight sub-tensor.
        let mut rng = Prng::new(1);
        let mut conv = RangedConv2d::new(8, 6, 3, 1, 1, &mut rng);
        let x = Tensor::from_fn(&[2, 3, 5, 5], |i| (i as f32 * 0.1).sin());
        let y = conv.forward(&x, full(3), full(4), false);

        // Manual: small conv with weights copied from the window.
        let mut small = RangedConv2d::new(4, 3, 3, 1, 1, &mut Prng::new(99));
        let kk = 9;
        for co in 0..4 {
            for ci in 0..3 {
                let src = (co * 6 + ci) * kk;
                let dst = (co * 3 + ci) * kk;
                let w = conv.weight().data()[src..src + kk].to_vec();
                small.weight_mut().data_mut()[dst..dst + kk].copy_from_slice(&w);
            }
            small.bias_mut().data_mut()[co] = conv.bias().data()[co];
        }
        let y2 = small.forward(&x, full(3), full(4), false);
        assert!(y.allclose(&y2, 1e-5));
    }

    #[test]
    fn bias_applied_per_channel() {
        let mut rng = Prng::new(2);
        let mut conv = RangedConv2d::new(2, 1, 1, 1, 0, &mut rng);
        conv.weight_mut().fill(0.0);
        conv.bias_mut().data_mut()[0] = 1.5;
        conv.bias_mut().data_mut()[1] = -2.5;
        let x = Tensor::zeros(&[1, 1, 3, 3]);
        let y = conv.forward(&x, full(1), full(2), false);
        assert!(y.slice_channels(0, 1).data().iter().all(|&v| v == 1.5));
        assert!(y.slice_channels(1, 2).data().iter().all(|&v| v == -2.5));
    }

    #[test]
    fn gradcheck_weights_full_window() {
        let mut rng = Prng::new(3);
        let mut conv = RangedConv2d::new(3, 2, 3, 1, 1, &mut rng);
        let x = Tensor::from_fn(&[2, 2, 4, 4], |i| (i as f32 * 0.23).sin());

        // Loss = sum(forward(x)^2) / 2, analytic grad vs finite differences.
        let y = conv.forward(&x, full(2), full(3), true);
        let _ = conv.backward(&y);
        let mut analytic = Tensor::zeros(conv.wgrad.dims());
        analytic.data_mut().copy_from_slice(conv.wgrad.data());

        let eps = 1e-2;
        let mut max_err: f32 = 0.0;
        for i in 0..conv.weight.numel() {
            let orig = conv.weight.data()[i];
            conv.weight.data_mut()[i] = orig + eps;
            let lp = conv.forward(&x, full(2), full(3), false).sq_norm() / 2.0;
            conv.weight.data_mut()[i] = orig - eps;
            let lm = conv.forward(&x, full(2), full(3), false).sq_norm() / 2.0;
            conv.weight.data_mut()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            max_err = max_err.max(max_relative_error(analytic.data()[i], num));
        }
        assert!(max_err < 2e-2, "max weight grad error {max_err}");
    }

    #[test]
    fn gradcheck_input() {
        let mut rng = Prng::new(4);
        let mut conv = RangedConv2d::new(3, 2, 3, 1, 1, &mut rng);
        let mut x = Tensor::from_fn(&[1, 2, 4, 4], |i| (i as f32 * 0.31).cos());

        let y = conv.forward(&x, full(2), full(3), true);
        let gin = conv.backward(&y);

        let eps = 1e-2;
        let mut max_err: f32 = 0.0;
        for i in 0..x.numel() {
            let orig = x.data()[i];
            x.data_mut()[i] = orig + eps;
            let lp = conv.forward(&x, full(2), full(3), false).sq_norm() / 2.0;
            x.data_mut()[i] = orig - eps;
            let lm = conv.forward(&x, full(2), full(3), false).sq_norm() / 2.0;
            x.data_mut()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            max_err = max_err.max(max_relative_error(gin.data()[i], num));
        }
        assert!(max_err < 2e-2, "max input grad error {max_err}");
    }

    #[test]
    fn training_window_leaves_other_weights_untouched() {
        let mut rng = Prng::new(5);
        let mut conv = RangedConv2d::new(16, 16, 3, 1, 1, &mut rng);
        let x = Tensor::from_fn(&[1, 8, 4, 4], |i| (i as f32 * 0.2).sin());
        let lo = ChannelRange::new(0, 8);
        conv.zero_grad();
        let y = conv.forward(&x, lo, lo, true);
        let _ = conv.backward(&y);
        // All gradient mass must lie in the [0..8, 0..8] window.
        let kk = 9;
        for co in 0..16 {
            for ci in 0..16 {
                let base = (co * 16 + ci) * kk;
                let nonzero = conv.wgrad.data()[base..base + kk].iter().any(|&g| g != 0.0);
                let inside = co < 8 && ci < 8;
                assert_eq!(nonzero, inside, "window leak at co={co}, ci={ci}");
            }
        }
        for co in 8..16 {
            assert_eq!(conv.bgrad.data()[co], 0.0);
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_steps() {
        // Two training steps through the same workspace must match the
        // allocating path exactly — dirty recycled buffers included.
        let mut rng = Prng::new(11);
        let mut conv = RangedConv2d::new(4, 3, 3, 1, 1, &mut rng);
        let mut twin = conv.clone();
        let mut ws = Workspace::new();
        let x = Tensor::from_fn(&[2, 3, 6, 6], |i| (i as f32 * 0.13).sin());
        for _ in 0..3 {
            let y_ws = conv.forward_ws(&x, full(3), full(4), true, &mut ws);
            let g_ws = conv.backward_ws(&y_ws, &mut ws);
            let y = twin.forward(&x, full(3), full(4), true);
            let g = twin.backward(&y);
            assert!(y_ws.allclose(&y, 0.0), "forward drifted");
            assert!(g_ws.allclose(&g, 0.0), "backward drifted");
        }
        assert!(ws.buffers_held() > 0, "scratch was recycled for reuse");
        assert!(
            conv.wgrad.allclose(&twin.wgrad, 0.0),
            "gradient accumulation drifted"
        );
    }

    #[test]
    #[should_panic(expected = "backward without cached forward")]
    fn backward_without_forward_panics() {
        let mut rng = Prng::new(6);
        let mut conv = RangedConv2d::new(2, 1, 3, 1, 1, &mut rng);
        let _ = conv.backward(&Tensor::zeros(&[1, 2, 3, 3]));
    }

    #[test]
    fn macs_scale_with_window() {
        let mut rng = Prng::new(7);
        let conv = RangedConv2d::new(16, 16, 3, 1, 1, &mut rng);
        let half = conv.window_macs(ChannelRange::prefix(8), ChannelRange::prefix(8), 28, 28);
        let fullm = conv.window_macs(ChannelRange::prefix(16), ChannelRange::prefix(16), 28, 28);
        assert_eq!(fullm, 4 * half);
    }
}
