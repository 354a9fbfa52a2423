//! Range-sliceable fully-connected layer.

use crate::range::ChannelRange;
use fluid_tensor::{kaiming_uniform, Prng, Tensor, Workspace};

/// A fully-connected layer `[out_features, in_features_max]` that can consume
/// any *input-feature column range*.
///
/// This is the layer that makes Fluid DyDNNs distribution-friendly: the full
/// model's logits decompose into partial products over disjoint column
/// ranges,
///
/// ```text
/// logits = W[:, lower] · x_lower + W[:, upper] · x_upper + b
/// ```
///
/// so in High-Accuracy mode each device computes one partial product and the
/// Master adds them (plus the bias exactly once — see `with_bias`).
#[derive(Debug, Clone)]
pub struct RangedLinear {
    weight: Tensor, // [out_features, in_features_max]
    bias: Tensor,   // [out_features]
    wgrad: Tensor,
    bgrad: Tensor,
    out_features: usize,
    in_features_max: usize,
    cache: Vec<LinearCache>,
}

#[derive(Debug, Clone)]
struct LinearCache {
    x: Tensor,
    in_range: ChannelRange,
    with_bias: bool,
}

impl RangedLinear {
    /// Creates a linear layer with Kaiming-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero.
    pub fn new(out_features: usize, in_features_max: usize, rng: &mut Prng) -> Self {
        assert!(out_features > 0 && in_features_max > 0);
        Self {
            weight: kaiming_uniform(&[out_features, in_features_max], in_features_max, rng),
            bias: Tensor::zeros(&[out_features]),
            wgrad: Tensor::zeros(&[out_features, in_features_max]),
            bgrad: Tensor::zeros(&[out_features]),
            out_features,
            in_features_max,
            cache: Vec::new(),
        }
    }

    /// Output feature count (number of classes for the paper's head).
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Maximum input feature count.
    pub fn in_features_max(&self) -> usize {
        self.in_features_max
    }

    /// The full weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable weight matrix.
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

    /// Extracts columns `[in_range)` as an `[out, in_w]` matrix, backed by
    /// a workspace buffer.
    pub(crate) fn weight_window(&self, in_range: ChannelRange, ws: &mut Workspace) -> Tensor {
        let in_w = in_range.width();
        let mut out = ws.tensor_zeroed(&[self.out_features, in_w]);
        for r in 0..self.out_features {
            let src = r * self.in_features_max + in_range.lo;
            out.data_mut()[r * in_w..(r + 1) * in_w]
                .copy_from_slice(&self.weight.data()[src..src + in_w]);
        }
        out
    }

    /// Computes `x · W[:, in_range]ᵀ` (+ bias when `with_bias`).
    ///
    /// In distributed High-Accuracy mode only one device sets `with_bias`
    /// so the merged partial logits contain the bias exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not rank 2, the range exceeds the layer's maximum,
    /// or `x.dim(1) != in_range.width()`.
    pub fn forward(
        &mut self,
        x: &Tensor,
        in_range: ChannelRange,
        with_bias: bool,
        train: bool,
    ) -> Tensor {
        self.forward_ws(x, in_range, with_bias, train, &mut Workspace::new())
    }

    /// [`forward`](RangedLinear::forward) with scratch drawn from (and
    /// recycled into) `ws`.
    ///
    /// # Panics
    ///
    /// As for [`forward`](RangedLinear::forward).
    pub fn forward_ws(
        &mut self,
        x: &Tensor,
        in_range: ChannelRange,
        with_bias: bool,
        train: bool,
        ws: &mut Workspace,
    ) -> Tensor {
        assert!(
            in_range.fits(self.in_features_max),
            "in_range {in_range} exceeds {}",
            self.in_features_max
        );
        let d = x.dims();
        assert_eq!(d.len(), 2, "linear input rank {}", d.len());
        assert_eq!(
            d[1],
            in_range.width(),
            "input has {} features but in_range is {in_range}",
            d[1]
        );
        let wmat = self.weight_window(in_range, ws);
        // x · Wᵀ through a transposed zero-copy view — the engine packs
        // straight from the window's strides.
        let mut y = x.view().matmul_ws(&wmat.view().t(), ws); // [N, out]
        ws.recycle(wmat);
        if with_bias {
            for row in y.data_mut().chunks_exact_mut(self.out_features) {
                for (v, &b) in row.iter_mut().zip(self.bias.data()) {
                    *v += b;
                }
            }
        }
        if train {
            self.cache.push(LinearCache {
                x: ws.tensor_copy(x),
                in_range,
                with_bias,
            });
        }
        y
    }

    /// Backpropagates through the last `forward(.., train = true)` call.
    ///
    /// # Panics
    ///
    /// Panics if no training forward pass is cached or shapes mismatch.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_ws(grad_out, &mut Workspace::new())
    }

    /// [`backward`](RangedLinear::backward) with scratch drawn from (and
    /// recycled into) `ws`, including the input cached by the matching
    /// training forward pass.
    ///
    /// # Panics
    ///
    /// As for [`backward`](RangedLinear::backward).
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let cache = self.cache.pop().expect("backward without cached forward");
        let LinearCache {
            x,
            in_range,
            with_bias,
        } = cache;
        assert_eq!(
            grad_out.dims(),
            [x.dim(0), self.out_features],
            "grad_out shape mismatch"
        );
        // dW[:, range] += goutᵀ · x (transposed view, no materialising)
        let wg = grad_out.view().t().matmul_ws(&x.view(), ws); // [out, in_w]
        let in_w = in_range.width();
        for r in 0..self.out_features {
            let dst = r * self.in_features_max + in_range.lo;
            for (d, s) in self.wgrad.data_mut()[dst..dst + in_w]
                .iter_mut()
                .zip(&wg.data()[r * in_w..(r + 1) * in_w])
            {
                *d += s;
            }
        }
        ws.recycle(wg);
        ws.recycle(x);
        if with_bias {
            let rg = grad_out.sum_rows_ws(ws);
            self.bgrad.add_assign(&rg);
            ws.recycle(rg);
        }
        // dX = gout · W[:, range]
        let wmat = self.weight_window(in_range, ws);
        let gin = grad_out.matmul_ws(&wmat, ws);
        ws.recycle(wmat);
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

    /// Mutable access to the accumulated weight gradient (used by freezing
    /// strategies that clear gradients before the optimizer step).
    pub fn wgrad_mut(&mut self) -> &mut Tensor {
        &mut self.wgrad
    }

    /// Mutable access to the accumulated bias gradient.
    pub fn bgrad_mut(&mut self) -> &mut Tensor {
        &mut self.bgrad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::max_relative_error;

    #[test]
    fn forward_shape() {
        let mut rng = Prng::new(0);
        let mut fc = RangedLinear::new(10, 64, &mut rng);
        let x = Tensor::zeros(&[3, 64]);
        let y = fc.forward(&x, ChannelRange::prefix(64), true, false);
        assert_eq!(y.dims(), &[3, 10]);
    }

    #[test]
    fn partial_logits_decompose_exactly() {
        // The HA-mode invariant: full forward == lower partial + upper
        // partial + bias, with identical floating-point layout.
        let mut rng = Prng::new(1);
        let mut fc = RangedLinear::new(5, 8, &mut rng);
        let x = Tensor::from_fn(&[2, 8], |i| (i as f32 * 0.37).sin());
        let full = fc.forward(&x, ChannelRange::prefix(8), true, false);

        let x_lo = x.slice_cols(0, 4);
        let x_hi = x.slice_cols(4, 8);
        let p_lo = fc.forward(&x_lo, ChannelRange::new(0, 4), true, false);
        let p_hi = fc.forward(&x_hi, ChannelRange::new(4, 8), false, false);
        let merged = p_lo.add(&p_hi);
        assert!(
            full.allclose(&merged, 1e-5),
            "diff {}",
            full.max_abs_diff(&merged)
        );
    }

    #[test]
    fn bias_once_semantics() {
        let mut rng = Prng::new(2);
        let mut fc = RangedLinear::new(3, 4, &mut rng);
        fc.weight_mut().fill(0.0);
        fc.bias_mut().data_mut().copy_from_slice(&[1.0, 2.0, 3.0]);
        let x = Tensor::zeros(&[1, 2]);
        let with = fc.forward(&x, ChannelRange::new(0, 2), true, false);
        let without = fc.forward(&x, ChannelRange::new(2, 4), false, false);
        assert_eq!(with.data(), &[1.0, 2.0, 3.0]);
        assert_eq!(without.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn bias_is_added_once_to_every_batch_row() {
        let mut rng = Prng::new(6);
        let mut fc = RangedLinear::new(4, 6, &mut rng);
        fc.bias_mut()
            .data_mut()
            .copy_from_slice(&[0.5, -1.0, 2.0, 0.25]);
        let x = Tensor::from_fn(&[3, 6], |i| (i as f32 * 0.21).sin());
        let r = ChannelRange::prefix(6);
        let with = fc.forward(&x, r, true, false);
        let without = fc.forward(&x, r, false, false);
        for (i, (w, o)) in with.data().iter().zip(without.data()).enumerate() {
            assert_eq!(*w, o + fc.bias.data()[i % 4], "element {i}");
        }
    }

    #[test]
    fn batched_rows_equal_single_row_forwards() {
        // The serving batching invariant through the FC layer, bias included.
        let mut rng = Prng::new(7);
        let mut fc = RangedLinear::new(5, 9, &mut rng);
        fc.bias_mut()
            .data_mut()
            .copy_from_slice(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        let x = Tensor::from_fn(&[4, 9], |i| (i as f32 * 0.13).cos());
        let r = ChannelRange::prefix(9);
        let batched = fc.forward(&x, r, true, false);
        for i in 0..4 {
            let alone = fc.forward(&x.slice_rows(i, i + 1), r, true, false);
            assert_eq!(alone.data(), batched.row(i), "row {i}");
        }
    }

    #[test]
    fn empty_batch_forward_is_empty() {
        let mut rng = Prng::new(8);
        let mut fc = RangedLinear::new(3, 4, &mut rng);
        let y = fc.forward(
            &Tensor::zeros(&[0, 4]),
            ChannelRange::prefix(4),
            true,
            false,
        );
        assert_eq!(y.dims(), &[0, 3]);
    }

    #[test]
    fn gradcheck_weights_and_input() {
        let mut rng = Prng::new(3);
        let mut fc = RangedLinear::new(4, 6, &mut rng);
        let mut x = Tensor::from_fn(&[3, 6], |i| (i as f32 * 0.11).cos());
        let r = ChannelRange::prefix(6);

        let y = fc.forward(&x, r, true, true);
        let gin = fc.backward(&y); // d/dx of sum(y^2)/2 pattern

        let eps = 1e-2;
        let mut max_err: f32 = 0.0;
        for i in 0..fc.weight.numel() {
            let orig = fc.weight.data()[i];
            fc.weight.data_mut()[i] = orig + eps;
            let lp = fc.forward(&x, r, true, false).sq_norm() / 2.0;
            fc.weight.data_mut()[i] = orig - eps;
            let lm = fc.forward(&x, r, true, false).sq_norm() / 2.0;
            fc.weight.data_mut()[i] = orig;
            max_err = max_err.max(max_relative_error(
                fc.wgrad.data()[i],
                (lp - lm) / (2.0 * eps),
            ));
        }
        for i in 0..x.numel() {
            let orig = x.data()[i];
            x.data_mut()[i] = orig + eps;
            let lp = fc.forward(&x, r, true, false).sq_norm() / 2.0;
            x.data_mut()[i] = orig - eps;
            let lm = fc.forward(&x, r, true, false).sq_norm() / 2.0;
            x.data_mut()[i] = orig;
            max_err = max_err.max(max_relative_error(gin.data()[i], (lp - lm) / (2.0 * eps)));
        }
        assert!(max_err < 2e-2, "max grad error {max_err}");
    }

    #[test]
    fn column_window_training_leaves_rest_untouched() {
        let mut rng = Prng::new(4);
        let mut fc = RangedLinear::new(3, 8, &mut rng);
        let x = Tensor::from_fn(&[2, 4], |i| i as f32 * 0.3);
        fc.zero_grad();
        let y = fc.forward(&x, ChannelRange::new(4, 8), false, true);
        let _ = fc.backward(&y);
        for r in 0..3 {
            for c in 0..8 {
                let g = fc.wgrad.data()[r * 8 + c];
                if c < 4 {
                    assert_eq!(g, 0.0, "leak at ({r},{c})");
                }
            }
        }
        assert!(
            fc.bgrad.data().iter().all(|&g| g == 0.0),
            "bias grad without bias use"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_range_panics() {
        let mut rng = Prng::new(5);
        let mut fc = RangedLinear::new(2, 4, &mut rng);
        let x = Tensor::zeros(&[1, 6]);
        let _ = fc.forward(&x, ChannelRange::prefix(6), true, false);
    }
}
