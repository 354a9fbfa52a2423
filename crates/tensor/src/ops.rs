//! Elementwise operations and in-place arithmetic on [`Tensor`].
//!
//! Large tensors are processed in parallel chunks via the
//! [`pool`](crate::pool); every element is computed independently, so
//! results are bit-identical at any thread count.

use crate::pool;
use crate::tensor::Tensor;

/// Minimum elements per pool task for elementwise maps; below this the
/// fan-out overhead dominates and the op runs inline.
const ELEM_GRAIN: usize = 4096;

impl Tensor {
    /// Elementwise sum with another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|x| x * k)
    }

    /// Applies `f` to every element, returning a new tensor.
    ///
    /// `f` must be [`Sync`] because large tensors are mapped in parallel
    /// chunks (pure closures always are).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let src = self.data();
        let mut out = vec![0.0f32; src.len()];
        pool::parallel_rows_mut(&mut out, 1, ELEM_GRAIN, |range, block| {
            for (o, &x) in block.iter_mut().zip(&src[range]) {
                *o = f(x);
            }
        });
        Tensor::from_vec(out, self.dims())
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(self.dims(), other.dims(), "elementwise shape mismatch");
        let (lhs, rhs) = (self.data(), other.data());
        let mut out = vec![0.0f32; lhs.len()];
        pool::parallel_rows_mut(&mut out, 1, ELEM_GRAIN, |range, block| {
            for ((o, &a), &b) in block.iter_mut().zip(&lhs[range.clone()]).zip(&rhs[range]) {
                *o = f(a, b);
            }
        });
        Tensor::from_vec(out, self.dims())
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.dims(), other.dims(), "add_assign shape mismatch");
        let rhs = other.data();
        pool::parallel_rows_mut(self.data_mut(), 1, ELEM_GRAIN, |range, block| {
            for (a, &b) in block.iter_mut().zip(&rhs[range]) {
                *a += b;
            }
        });
    }

    /// In-place `self += k * other` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, k: f32, other: &Tensor) {
        assert_eq!(self.dims(), other.dims(), "axpy shape mismatch");
        let rhs = other.data();
        pool::parallel_rows_mut(self.data_mut(), 1, ELEM_GRAIN, |range, block| {
            for (a, &b) in block.iter_mut().zip(&rhs[range]) {
                *a += k * b;
            }
        });
    }

    /// In-place scalar multiplication.
    pub fn scale_in_place(&mut self, k: f32) {
        pool::parallel_rows_mut(self.data_mut(), 1, ELEM_GRAIN, |_, block| {
            block.iter_mut().for_each(|x| *x *= k);
        });
    }

    /// Rectified linear unit, elementwise `max(x, 0)`.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data().iter().map(|x| x * x).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()])
    }

    #[test]
    fn add_sub_mul() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    #[should_panic(expected = "elementwise shape mismatch")]
    fn add_shape_mismatch_panics() {
        let _ = t(&[1.0]).add(&t(&[1.0, 2.0]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1.0, 1.0]);
        a.axpy(2.0, &t(&[3.0, 4.0]));
        assert_eq!(a.data(), &[7.0, 9.0]);
    }

    #[test]
    fn relu_clamps_negative() {
        let a = t(&[-1.0, 0.0, 2.0]);
        assert_eq!(a.relu().data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn sq_norm_matches_manual() {
        let a = t(&[3.0, 4.0]);
        assert_eq!(a.sq_norm(), 25.0);
    }

    #[test]
    fn scale_in_place() {
        let mut a = t(&[1.0, -2.0]);
        a.scale_in_place(-3.0);
        assert_eq!(a.data(), &[-3.0, 6.0]);
    }
}
