//! Int8 twins of the ranged layers for the quantized inference path.
//!
//! A [`QuantConv2d`] / [`QuantLinear`] is **frozen**: it is built once
//! from an f32 layer's active channel window (weights quantized per
//! output channel and pre-packed) plus a calibrated activation scale, and
//! then only runs forward. Training, backprop, and range re-slicing stay
//! on the f32 layers; re-quantize to pick up new weights.
//!
//! The forward contract mirrors the f32 layers exactly — same shapes,
//! same implicit-GEMM convolution (the patch matrix is gathered during
//! packing, never materialised), same workspace discipline — with the
//! GEMM swapped for [`fluid_tensor::quant::qgemm_ws`]: i8 operands, exact
//! i32 accumulation, f32 dequantizing epilogue, then the bias added in
//! f32. Because the integer core is exact, quantized outputs are
//! bit-identical at any thread count and under any SIMD dispatch
//! decision.

use crate::conv::{cnp_to_nchw_bias, stage_epilogue, RangedConv2d};
use crate::linear::RangedLinear;
use crate::range::ChannelRange;
use fluid_tensor::quant::{qgemm_ws, QuantSrcB, QuantizedMatrix};
use fluid_tensor::{Conv2dGeometry, PatchMatrix, Tensor, Workspace};

/// A frozen int8 convolution over one `(in_range, out_range)` window of a
/// [`RangedConv2d`], with a calibrated per-tensor input scale.
#[derive(Debug, Clone)]
pub struct QuantConv2d {
    qweight: QuantizedMatrix, // [out_w, in_w·K·K], per-out-channel scales
    bias: Vec<f32>,
    in_w: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    in_scale: f32,
}

impl QuantConv2d {
    /// Quantizes the conv's active weight window. `in_scale` is the
    /// calibrated symmetric scale of this layer's *input* activations
    /// (see `fluid_models::calibrate`).
    ///
    /// # Panics
    ///
    /// Panics if the ranges exceed the layer's maxima or `in_scale` is not
    /// a positive finite number.
    pub fn from_ranged(
        conv: &RangedConv2d,
        in_range: ChannelRange,
        out_range: ChannelRange,
        in_scale: f32,
        ws: &mut Workspace,
    ) -> Self {
        assert!(
            in_scale.is_finite() && in_scale > 0.0,
            "bad activation scale {in_scale}"
        );
        let wmat = conv.weight_window(in_range, out_range, ws); // [out_w, in_w·K·K]
        let out_w = out_range.width();
        let in_w = in_range.width();
        let k = conv.kernel();
        let qweight = QuantizedMatrix::from_rows(wmat.data(), out_w, in_w * k * k);
        ws.recycle(wmat);
        let bias = conv.bias().data()[out_range.lo..out_range.hi].to_vec();
        Self {
            qweight,
            bias,
            in_w,
            kernel: k,
            stride: conv.stride(),
            pad: conv.pad(),
            in_scale,
        }
    }

    /// Active output channels.
    pub fn out_width(&self) -> usize {
        self.qweight.m()
    }

    /// The calibrated input activation scale.
    pub fn in_scale(&self) -> f32 {
        self.in_scale
    }

    /// Runs the int8 convolution: quantize input on the fly, i8×i8→i32
    /// implicit GEMM, dequantize, add bias in f32.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, in_w, H, W]`.
    pub fn forward_ws(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let (out_mat, geo, n) = self.gemm_ws(x, ws);
        let out = cnp_to_nchw_bias(&out_mat, &self.bias, n, geo.out_h(), geo.out_w(), ws);
        ws.recycle_vec(out_mat);
        out
    }

    /// One int8 inference stage in one pass — the twin of
    /// [`RangedConv2d::forward_stage_ws`]: this convolution, its f32 bias,
    /// ReLU and a 2×2 / stride-2 max-pool, equal element for element to
    /// [`forward_ws`](QuantConv2d::forward_ws) → `Relu` → `MaxPool2d`.
    ///
    /// # Panics
    ///
    /// As for [`forward_ws`](QuantConv2d::forward_ws), and if the conv
    /// output plane is smaller than the 2×2 window.
    pub fn forward_stage_ws(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let (out_mat, geo, n) = self.gemm_ws(x, ws);
        let out = stage_epilogue(&out_mat, &self.bias, n, geo.out_h(), geo.out_w(), ws);
        ws.recycle_vec(out_mat);
        out
    }

    /// Validates `x` and runs the int8 implicit GEMM, returning the
    /// dequantized `[out_w, N·P]` product, the geometry and the batch size.
    fn gemm_ws(&self, x: &Tensor, ws: &mut Workspace) -> (Vec<f32>, Conv2dGeometry, usize) {
        let d = x.dims();
        assert_eq!(d.len(), 4, "conv input rank {}", d.len());
        assert_eq!(
            d[1], self.in_w,
            "input has {} channels but the quantized window expects {}",
            d[1], self.in_w
        );
        let (n, h, w) = (d[0], d[2], d[3]);
        let geo = Conv2dGeometry::new(h, w, self.kernel, self.stride, self.pad);
        let patches = PatchMatrix::new(x.data(), n, self.in_w, geo);
        let np = n * geo.out_positions();
        let mut out_mat = ws.take_dirty(self.out_width() * np); // fully overwritten
        qgemm_ws(
            &self.qweight,
            QuantSrcB::Patches(&patches),
            self.in_scale,
            np,
            &mut out_mat,
            ws,
        );
        (out_mat, geo, n)
    }
}

/// A frozen int8 FC head over one input-feature column range of a
/// [`RangedLinear`].
#[derive(Debug, Clone)]
pub struct QuantLinear {
    qweight: QuantizedMatrix, // [out, in_w], per-out-row scales
    bias: Vec<f32>,
    with_bias: bool,
    in_w: usize,
    in_scale: f32,
}

impl QuantLinear {
    /// Quantizes the FC window over `in_range`. `with_bias` mirrors the
    /// f32 forward's flag: in distributed partial-logit mode only one
    /// branch contributes the bias.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the layer's maximum or `in_scale` is
    /// not a positive finite number.
    pub fn from_ranged(
        fc: &RangedLinear,
        in_range: ChannelRange,
        with_bias: bool,
        in_scale: f32,
        ws: &mut Workspace,
    ) -> Self {
        assert!(
            in_scale.is_finite() && in_scale > 0.0,
            "bad activation scale {in_scale}"
        );
        let wmat = fc.weight_window(in_range, ws); // [out, in_w]
        let in_w = in_range.width();
        let qweight = QuantizedMatrix::from_rows(wmat.data(), fc.out_features(), in_w);
        ws.recycle(wmat);
        Self {
            qweight,
            bias: fc.bias().data().to_vec(),
            with_bias,
            in_w,
            in_scale,
        }
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.qweight.m()
    }

    /// The calibrated input activation scale.
    pub fn in_scale(&self) -> f32 {
        self.in_scale
    }

    /// Computes the (partial) logits `[N, out]` for `x` `[N, in_w]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, in_w]`.
    pub fn forward_ws(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let d = x.dims();
        assert_eq!(d.len(), 2, "linear input rank {}", d.len());
        assert_eq!(
            d[1], self.in_w,
            "input has {} features but the quantized window expects {}",
            d[1], self.in_w
        );
        let n = d[0];
        let out_f = self.out_features();
        // The int8 engine wants the weights on the left: compute
        // `[out, N] = qW · xᵀ`, then transpose (+ bias) into `[N, out]`.
        let mut prod = ws.take_dirty(out_f * n);
        qgemm_ws(
            &self.qweight,
            QuantSrcB::Cols(x.data()),
            self.in_scale,
            n,
            &mut prod,
            ws,
        );
        let mut y = ws.tensor_zeroed(&[n, out_f]);
        for (i, v) in y.data_mut().iter_mut().enumerate() {
            let (ni, o) = (i / out_f, i % out_f);
            *v = prod[o * n + ni];
            if self.with_bias {
                *v += self.bias[o];
            }
        }
        ws.recycle_vec(prod);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluid_tensor::Prng;

    fn full(c: usize) -> ChannelRange {
        ChannelRange::prefix(c)
    }

    #[test]
    fn quant_conv_tracks_f32_within_tolerance() {
        let mut rng = Prng::new(42);
        let mut conv = RangedConv2d::new(8, 3, 3, 1, 1, &mut rng);
        let x = fluid_tensor::kaiming_uniform(&[2, 3, 12, 12], 16, &mut rng.fork(7));
        let mut ws = Workspace::new();
        let want = conv.forward_ws(&x, full(3), full(8), false, &mut ws);
        let in_scale = fluid_tensor::quant::symmetric_scale(fluid_tensor::quant::max_abs(x.data()));
        let qconv = QuantConv2d::from_ranged(&conv, full(3), full(8), in_scale, &mut ws);
        let got = qconv.forward_ws(&x, &mut ws);
        assert_eq!(got.dims(), want.dims());
        let max_mag = fluid_tensor::quant::max_abs(want.data());
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!(
                (g - w).abs() <= 0.05 * max_mag.max(1.0),
                "quantized conv drifted: {g} vs {w}"
            );
        }
    }

    #[test]
    fn quant_conv_is_deterministic_and_allocation_steady() {
        let mut rng = Prng::new(1);
        let conv = RangedConv2d::new(6, 2, 3, 1, 1, &mut rng);
        let x = fluid_tensor::kaiming_uniform(&[3, 2, 9, 9], 8, &mut rng.fork(3));
        let mut ws = Workspace::new();
        let qconv = QuantConv2d::from_ranged(&conv, full(2), full(6), 0.01, &mut ws);
        let a = qconv.forward_ws(&x, &mut ws);
        let held = ws.buffers_held();
        let b = qconv.forward_ws(&x, &mut ws);
        assert_eq!(a.data(), b.data(), "quantized conv must be bit-stable");
        ws.recycle(b);
        assert!(
            ws.buffers_held() >= held,
            "steady-state forward must not consume pooled buffers"
        );
    }

    #[test]
    fn quant_linear_tracks_f32_within_tolerance() {
        let mut rng = Prng::new(9);
        let mut fc = RangedLinear::new(10, 32, &mut rng);
        let x = fluid_tensor::kaiming_uniform(&[4, 32], 32, &mut rng.fork(2));
        let mut ws = Workspace::new();
        let want = fc.forward_ws(&x, full(32), true, false, &mut ws);
        let in_scale = fluid_tensor::quant::symmetric_scale(fluid_tensor::quant::max_abs(x.data()));
        let qfc = QuantLinear::from_ranged(&fc, full(32), true, in_scale, &mut ws);
        let got = qfc.forward_ws(&x, &mut ws);
        assert_eq!(got.dims(), want.dims());
        let max_mag = fluid_tensor::quant::max_abs(want.data());
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!(
                (g - w).abs() <= 0.05 * max_mag.max(1.0),
                "quantized linear drifted: {g} vs {w}"
            );
        }
    }

    #[test]
    fn quant_linear_respects_bias_flag() {
        let mut rng = Prng::new(5);
        let mut fc = RangedLinear::new(4, 8, &mut rng);
        fc.bias_mut().data_mut().iter_mut().for_each(|b| *b = 1.5);
        let x = Tensor::zeros(&[2, 8]);
        let mut ws = Workspace::new();
        let with = QuantLinear::from_ranged(&fc, full(8), true, 0.1, &mut ws);
        let without = QuantLinear::from_ranged(&fc, full(8), false, 0.1, &mut ws);
        assert!(with
            .forward_ws(&x, &mut ws)
            .data()
            .iter()
            .all(|&v| v == 1.5));
        assert!(without
            .forward_ws(&x, &mut ws)
            .data()
            .iter()
            .all(|&v| v == 0.0));
    }
}
