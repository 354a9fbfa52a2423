//! Activation layers.

use fluid_tensor::{pool, Tensor, Workspace};

/// Minimum elements per pool task for the in-place elementwise stages
/// (mirrors the tensor crate's elementwise grain).
const ELEM_GRAIN: usize = 4096;

/// Rectified linear unit with cached mask for backprop.
///
/// # Example
///
/// ```
/// use fluid_nn::Relu;
/// use fluid_tensor::Tensor;
/// let mut relu = Relu::new();
/// let y = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[2]), false);
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<Vec<bool>>,
    /// Retired mask buffers, reused by later training forwards so the
    /// steady-state step allocates nothing.
    spare: Vec<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fills a (possibly recycled) mask buffer with `x > 0`.
    fn push_mask(&mut self, x: &Tensor) {
        let mut mask = self.spare.pop().unwrap_or_default();
        mask.clear();
        mask.extend(x.data().iter().map(|&v| v > 0.0));
        self.mask.push(mask);
    }

    /// Applies `max(x, 0)` elementwise; caches the pass-through mask when
    /// `train` is set.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.push_mask(x);
        }
        x.relu()
    }

    /// [`forward`](Relu::forward) with the output buffer drawn from `ws`.
    pub fn forward_ws(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        if train {
            self.push_mask(x);
        }
        let src = x.data();
        let mut out = ws.take_dirty(src.len()); // fully overwritten
        pool::parallel_rows_mut(&mut out, 1, ELEM_GRAIN, |range, block| {
            for (o, &v) in block.iter_mut().zip(&src[range]) {
                *o = v.max(0.0);
            }
        });
        Tensor::from_vec(out, x.dims())
    }

    /// Backpropagates using the cached mask.
    ///
    /// # Panics
    ///
    /// Panics if no training forward pass is cached or the element count
    /// differs.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_ws(grad_out, &mut Workspace::new())
    }

    /// [`backward`](Relu::backward) with the output buffer drawn from `ws`.
    ///
    /// # Panics
    ///
    /// As for [`backward`](Relu::backward).
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let mask = self.mask.pop().expect("backward without cached forward");
        assert_eq!(mask.len(), grad_out.numel(), "relu mask length mismatch");
        let mut out = ws.tensor_copy(grad_out);
        {
            let mask = &mask[..];
            pool::parallel_rows_mut(out.data_mut(), 1, ELEM_GRAIN, |range, block| {
                for (g, &m) in block.iter_mut().zip(&mask[range]) {
                    if !m {
                        *g = 0.0;
                    }
                }
            });
        }
        self.spare.push(mask);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_vec(vec![-3.0, 0.0, 5.0], &[3]), false);
        assert_eq!(y.data(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 2.0, -0.5, 3.0], &[4]);
        let _ = r.forward(&x, true);
        let g = r.backward(&Tensor::ones(&[4]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn zero_input_blocks_gradient() {
        // ReLU'(0) is defined as 0 here (subgradient choice).
        let mut r = Relu::new();
        let _ = r.forward(&Tensor::zeros(&[2]), true);
        let g = r.backward(&Tensor::ones(&[2]));
        assert_eq!(g.data(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "backward without cached forward")]
    fn backward_without_forward_panics() {
        let mut r = Relu::new();
        let _ = r.backward(&Tensor::ones(&[1]));
    }
}
