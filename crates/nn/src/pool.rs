//! Max pooling.

use fluid_tensor::{Tensor, Workspace};

/// 2-D max pooling over square windows.
///
/// Caches the argmax positions during a training forward pass so the
/// backward pass routes each output gradient to the winning input element.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    size: usize,
    stride: usize,
    cache: Vec<PoolCache>,
}

#[derive(Debug, Clone)]
struct PoolCache {
    argmax: Vec<usize>,
    /// Inline `[usize; 4]` (not a `Vec`) so caching it never allocates.
    in_dims: [usize; 4],
}

impl MaxPool2d {
    /// Creates a pooling layer with the given window size and stride.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or `stride == 0`.
    pub fn new(size: usize, stride: usize) -> Self {
        assert!(size > 0 && stride > 0, "pool size/stride must be positive");
        Self {
            size,
            stride,
            cache: Vec::new(),
        }
    }

    /// Output spatial extent for an input extent.
    pub fn out_extent(&self, in_extent: usize) -> usize {
        if in_extent < self.size {
            0
        } else {
            (in_extent - self.size) / self.stride + 1
        }
    }

    /// Applies max pooling to an `[N, C, H, W]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 4 or smaller than the window.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_ws(x, train, &mut Workspace::new())
    }

    /// [`forward`](MaxPool2d::forward) with the output drawn from `ws`. A
    /// training forward also draws the argmax table from `ws` (recycled by
    /// the matching backward); inference records no argmaxes at all.
    ///
    /// # Panics
    ///
    /// As for [`forward`](MaxPool2d::forward).
    pub fn forward_ws(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let d = x.dims();
        assert_eq!(d.len(), 4, "pool input rank {}", d.len());
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let (oh, ow) = (self.out_extent(h), self.out_extent(w));
        assert!(
            oh > 0 && ow > 0,
            "input {h}x{w} smaller than pool window {}",
            self.size
        );
        let mut out = ws.take_dirty(n * c * oh * ow); // fully overwritten
        if train {
            let mut argmax = ws.take_indices(out.len());
            self.pool_planes::<true>(x.data(), h, w, &mut out, &mut argmax);
            self.cache.push(PoolCache {
                argmax,
                in_dims: [n, c, h, w],
            });
        } else {
            self.pool_planes::<false>(x.data(), h, w, &mut out, &mut []);
        }
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    /// Pools every `h`×`w` plane of `x` into `out`; with `ARGMAX`, also
    /// records each winner's index into `x` (`argmax` is as long as `out`).
    fn pool_planes<const ARGMAX: bool>(
        &self,
        x: &[f32],
        h: usize,
        w: usize,
        out: &mut [f32],
        argmax: &mut [usize],
    ) {
        match (self.size, self.stride) {
            // The window every model here uses: as constants, so the
            // window loops unroll.
            (2, 2) => scan_windows::<ARGMAX>(2, 2, x, h, w, out, argmax),
            (size, stride) => scan_windows::<ARGMAX>(size, stride, x, h, w, out, argmax),
        }
    }

    /// Routes gradients to the argmax winners of the cached forward pass.
    ///
    /// # Panics
    ///
    /// Panics if no training forward pass is cached or shapes mismatch.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_ws(grad_out, &mut Workspace::new())
    }

    /// [`backward`](MaxPool2d::backward), recycling the cached argmax
    /// table into `ws`.
    ///
    /// # Panics
    ///
    /// As for [`backward`](MaxPool2d::backward).
    pub fn backward_ws(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let cache = self.cache.pop().expect("backward without cached forward");
        assert_eq!(
            cache.argmax.len(),
            grad_out.numel(),
            "pool grad length mismatch"
        );
        let mut gin = ws.tensor_zeroed(&cache.in_dims);
        for (g, &idx) in grad_out.data().iter().zip(&cache.argmax) {
            gin.data_mut()[idx] += g;
        }
        ws.recycle_indices(cache.argmax);
        gin
    }
}

/// The loop behind [`MaxPool2d::pool_planes`], inlined into each of its
/// arms so a constant `size`/`stride` reaches the window loops.
#[inline(always)]
fn scan_windows<const ARGMAX: bool>(
    size: usize,
    stride: usize,
    x: &[f32],
    h: usize,
    w: usize,
    out: &mut [f32],
    argmax: &mut [usize],
) {
    let (oh, ow) = ((h - size) / stride + 1, (w - size) / stride + 1);
    let planes = x.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow));
    for (plane, (src, dst)) in planes.enumerate() {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0;
                for ky in 0..size {
                    let row_at = (oy * stride + ky) * w + ox * stride;
                    for (kx, &v) in src[row_at..row_at + size].iter().enumerate() {
                        if v > best {
                            best = v;
                            best_idx = row_at + kx;
                        }
                    }
                }
                dst[oy * ow + ox] = best;
                if ARGMAX {
                    argmax[(plane * oh + oy) * ow + ox] = plane * h * w + best_idx;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_maximum() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 1, 4, 4],
        );
        let y = p.forward(&x, false);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn backward_routes_to_winner() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let _ = p.forward(&x, true);
        let g = p.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn odd_extent_truncates() {
        let p = MaxPool2d::new(2, 2);
        assert_eq!(p.out_extent(7), 3);
        assert_eq!(p.out_extent(1), 0);
    }

    #[test]
    fn handles_negative_values() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![-5.0, -2.0, -9.0, -4.0], &[1, 1, 2, 2]);
        let y = p.forward(&x, false);
        assert_eq!(y.data(), &[-2.0]);
    }

    #[test]
    #[should_panic(expected = "backward without cached forward")]
    fn backward_without_forward_panics() {
        let mut p = MaxPool2d::new(2, 2);
        let _ = p.backward(&Tensor::zeros(&[1, 1, 1, 1]));
    }
}
