//! Zero-copy transposed views into the GEMM.
//!
//! A [`TensorView`] is a borrowed window onto `f32` storage described by a
//! dims+strides [`Shape`](crate::Shape): transposing swaps two strides and
//! moves no byte. The GEMM engine packs operands straight from those
//! strides, so `a.view().t().matmul(&b.view())` is the transposed product
//! with no copy and no special kernel. Views are `Copy` and heap-free, so
//! building one on a hot path costs nothing. See `docs/TENSOR.md`.

use crate::gemm::{gemm, AccessA, AccessB};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// A zero-copy, read-only strided view over `f32` storage.
///
/// Created by [`Tensor::view`] and transformed by
/// [`transpose`](TensorView::transpose). `Copy` and heap-free: a view is a
/// slice reference plus an inline [`Shape`].
#[derive(Debug, Clone, Copy)]
pub struct TensorView<'a> {
    data: &'a [f32],
    shape: Shape,
}

impl<'a> TensorView<'a> {
    /// Dimension extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Per-dimension strides, in elements.
    pub fn strides(&self) -> &[usize] {
        self.shape.strides()
    }

    /// Swaps the last two dimensions — a zero-copy transpose.
    ///
    /// # Example
    ///
    /// ```
    /// use fluid_tensor::Tensor;
    /// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
    /// let tt = t.view().transpose(); // still borrowing t's storage
    /// assert_eq!(tt.dims(), &[3, 2]);
    /// assert_eq!(tt.strides(), &[1, 3]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the view has rank < 2.
    pub fn transpose(self) -> TensorView<'a> {
        let r = self.shape.rank();
        assert!(r >= 2, "transpose on rank-{r} view");
        TensorView {
            data: self.data,
            shape: self.shape.swapped(r - 2, r - 1),
        }
    }

    /// Shorthand for [`transpose`](TensorView::transpose).
    ///
    /// # Panics
    ///
    /// Panics if the view has rank < 2.
    pub fn t(self) -> TensorView<'a> {
        self.transpose()
    }

    /// Matrix product of two rank-2 views, in any layout: `[M, K] × [K,
    /// N] → [M, N]`. Transposed operands cost nothing extra — the GEMM
    /// engine packs straight from the view's strides, and the result is
    /// **bit-identical** to multiplying materialised copies (packing reads
    /// the same logical elements in the same order, and the accumulation
    /// chain is fixed by `K` and [`KC`](crate::KC) alone).
    ///
    /// # Example
    ///
    /// ```
    /// use fluid_tensor::Tensor;
    /// let a = Tensor::from_fn(&[3, 4], |i| i as f32 * 0.5);
    /// let b = Tensor::from_fn(&[5, 4], |i| i as f32 - 7.0);
    /// // a · bᵀ without materialising the transpose:
    /// let c = a.view().matmul(&b.view().t());
    /// assert_eq!(c, a.matmul(&b.transpose()));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if either view is not rank 2 or the inner dimensions differ.
    pub fn matmul(&self, other: &TensorView<'_>) -> Tensor {
        self.matmul_ws(other, &mut Workspace::new())
    }

    /// [`matmul`](TensorView::matmul) with the output buffer and packing
    /// scratch drawn from `ws`.
    ///
    /// # Panics
    ///
    /// Panics if either view is not rank 2 or the inner dimensions differ.
    pub fn matmul_ws(&self, other: &TensorView<'_>, ws: &mut Workspace) -> Tensor {
        let (a, b) = (self.dims(), other.dims());
        assert_eq!(a.len(), 2, "matmul lhs rank {}", a.len());
        assert_eq!(b.len(), 2, "matmul rhs rank {}", b.len());
        assert_eq!(a[1], b[0], "matmul inner dims {} vs {}", a[1], b[0]);
        let (m, k, n) = (a[0], a[1], b[1]);
        let (asr, bsr) = (self.strides(), other.strides());
        let mut out = ws.take_zeroed(m * n);
        gemm(
            m,
            n,
            k,
            AccessA::strided(self.data, asr[0], asr[1]),
            AccessB::strided(other.data, bsr[0], bsr[1]),
            &mut out,
            ws,
        );
        Tensor::from_vec(out, &[m, n])
    }
}

impl Tensor {
    /// A zero-copy read-only view of the whole tensor (contiguous,
    /// row-major) — the starting point for a
    /// [`transpose`](TensorView::transpose)d GEMM operand.
    ///
    /// # Example
    ///
    /// ```
    /// use fluid_tensor::Tensor;
    /// let t = Tensor::zeros(&[2, 3]);
    /// assert_eq!(t.view().dims(), &[2, 3]);
    /// assert_eq!(t.view().strides(), &[3, 1]);
    /// ```
    pub fn view(&self) -> TensorView<'_> {
        TensorView {
            data: self.data(),
            shape: *self.shape(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(dims: &[usize]) -> Tensor {
        Tensor::from_fn(dims, |i| i as f32)
    }

    #[test]
    fn view_of_tensor_is_contiguous_and_aliases() {
        let t = seq(&[2, 3]);
        let v = t.view();
        assert_eq!((v.dims(), v.strides()), (&[2, 3][..], &[3, 1][..]));
        assert_eq!(v.data.as_ptr(), t.data().as_ptr());
    }

    #[test]
    fn transpose_swaps_without_copy() {
        let t = seq(&[2, 3]);
        let v = t.view().transpose();
        assert_eq!((v.dims(), v.strides()), (&[3, 2][..], &[1, 3][..]));
        assert_eq!(v.data.as_ptr(), t.data().as_ptr());
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)] {
            assert_eq!(v.data[i * v.strides()[0] + j * v.strides()[1]], t.at2(j, i));
        }
    }

    #[test]
    fn t_is_an_involution() {
        let t = seq(&[4, 5]);
        let back = t.view().t().t();
        assert_eq!((back.dims(), back.strides()), (&[4, 5][..], &[5, 1][..]));
    }

    #[test]
    fn transpose_swaps_only_the_last_two_axes() {
        let t = seq(&[2, 3, 4, 5]);
        let v = t.view().t();
        assert_eq!(v.dims(), &[2, 3, 5, 4]);
        assert_eq!(v.strides(), &[60, 20, 1, 5]);
    }

    #[test]
    #[should_panic(expected = "transpose on rank-1 view")]
    fn transpose_of_rank1_view_panics() {
        let _ = seq(&[4]).view().t();
    }

    #[test]
    fn every_operand_layout_multiplies_bit_identically() {
        // Dense or transposed view of a stored transpose, on each side:
        // four layouts, one answer, bit for bit, across two KC blocks.
        let k = crate::KC + 5;
        let a = Tensor::from_fn(&[5, k], |i| (i as f32 * 0.17).sin());
        let b = Tensor::from_fn(&[k, 7], |i| (i as f32 * 0.29).cos());
        let (at, bt) = (a.transpose(), b.transpose());
        let want = a.view().matmul(&b.view());
        assert_eq!(at.view().t().matmul(&b.view()), want);
        assert_eq!(a.view().matmul(&bt.view().t()), want);
        assert_eq!(at.view().t().matmul(&bt.view().t()), want);
    }

    #[test]
    fn zero_size_views_multiply_to_empty_or_zero() {
        // No rows: an empty product. No inner extent: an all-zero one.
        let c = Tensor::zeros(&[0, 4]).view().matmul(&seq(&[4, 2]).view());
        assert_eq!(c.dims(), &[0, 2]);
        let e = Tensor::zeros(&[0, 3]);
        let z = e.view().t().matmul(&seq(&[0, 2]).view());
        assert_eq!(z, Tensor::zeros(&[3, 2]));
    }

    #[test]
    fn matmul_ws_reuses_its_workspace() {
        let a = Tensor::from_fn(&[6, 40], |i| (i as f32 * 0.3).sin());
        let b = Tensor::from_fn(&[9, 40], |i| (i as f32 * 0.7).cos());
        let mut ws = Workspace::new();
        let first = a.view().matmul_ws(&b.view().t(), &mut ws);
        ws.recycle(first);
        let held = ws.buffers_held();
        let second = a.view().matmul_ws(&b.view().t(), &mut ws);
        assert_eq!(second, a.view().matmul(&b.view().t()));
        ws.recycle(second);
        assert_eq!(ws.buffers_held(), held, "second run must reuse, not grow");
    }

    #[test]
    #[should_panic(expected = "matmul inner dims 3 vs 4")]
    fn matmul_inner_dim_mismatch_panics() {
        let _ = seq(&[2, 3]).view().matmul(&seq(&[4, 2]).view());
    }

    #[test]
    #[should_panic(expected = "matmul lhs rank 3")]
    fn matmul_of_rank3_view_panics() {
        let _ = seq(&[2, 2, 2]).view().matmul(&seq(&[2, 2]).view());
    }
}
