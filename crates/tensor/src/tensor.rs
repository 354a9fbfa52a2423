//! The dense, row-major `f32` tensor.

use crate::shape::{numel, Shape};

/// A dense, row-major (C-order), heap-allocated `f32` tensor.
///
/// This is the single numeric container used throughout the workspace:
/// images are `[N, C, H, W]`, FC activations `[N, F]`, conv weights
/// `[C_out, C_in, K, K]`.
///
/// # Example
///
/// ```
/// use fluid_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.numel(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given dims.
    pub fn zeros(dims: &[usize]) -> Self {
        Self {
            shape: Shape::new(dims),
            data: vec![0.0; numel(dims)],
        }
    }

    /// Creates a tensor of ones with the given dims.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        Self {
            shape: Shape::new(dims),
            data: vec![value; numel(dims)],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(dims),
            "buffer of {} elements cannot form shape {:?}",
            data.len(),
            dims
        );
        Self {
            shape: Shape::new(dims),
            data,
        }
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n = numel(dims);
        let data = (0..n).map(&mut f).collect();
        Self {
            shape: Shape::new(dims),
            data,
        }
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Extent of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn dim(&self, i: usize) -> usize {
        self.shape.dim(i)
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a reshaped copy sharing no storage.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        assert_eq!(
            self.numel(),
            numel(dims),
            "cannot reshape {} elements into {:?}",
            self.numel(),
            dims
        );
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// Reinterprets the shape in place (no data movement).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape_in_place(&mut self, dims: &[usize]) {
        assert_eq!(
            self.numel(),
            numel(dims),
            "cannot reshape {} elements into {:?}",
            self.numel(),
            dims
        );
        self.shape = Shape::new(dims);
    }

    /// Element at a 2-D index `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the index is out of bounds.
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        assert_eq!(
            self.shape.rank(),
            2,
            "at2 on rank-{} tensor",
            self.shape.rank()
        );
        let (rows, cols) = (self.dim(0), self.dim(1));
        assert!(r < rows && c < cols, "index ({r},{c}) out of {rows}x{cols}");
        self.data[r * cols + c]
    }

    /// Sets the element at a 2-D index `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the index is out of bounds.
    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        assert_eq!(
            self.shape.rank(),
            2,
            "set2 on rank-{} tensor",
            self.shape.rank()
        );
        let (rows, cols) = (self.dim(0), self.dim(1));
        assert!(r < rows && c < cols, "index ({r},{c}) out of {rows}x{cols}");
        self.data[r * cols + c] = v;
    }

    /// Element at a 4-D index `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or the index is out of bounds.
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        let d = self.dims();
        assert_eq!(d.len(), 4, "at4 on rank-{} tensor", d.len());
        assert!(
            n < d[0] && c < d[1] && h < d[2] && w < d[3],
            "index ({n},{c},{h},{w}) out of {:?}",
            d
        );
        self.data[((n * d[1] + c) * d[2] + h) * d[3] + w]
    }

    /// Sets the element at a 4-D index `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or the index is out of bounds.
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let d = self.dims().to_vec();
        assert_eq!(d.len(), 4, "set4 on rank-{} tensor", d.len());
        assert!(
            n < d[0] && c < d[1] && h < d[2] && w < d[3],
            "index ({n},{c},{h},{w}) out of {:?}",
            d
        );
        self.data[((n * d[1] + c) * d[2] + h) * d[3] + w] = v;
    }

    /// Extracts channels `[lo, hi)` of an `[N, C, H, W]` tensor.
    ///
    /// Used for fluid block slicing: branch inputs are channel ranges of the
    /// previous layer's output.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 or the range is invalid.
    pub fn slice_channels(&self, lo: usize, hi: usize) -> Tensor {
        let d = self.dims();
        assert_eq!(d.len(), 4, "slice_channels on rank-{} tensor", d.len());
        assert!(
            lo <= hi && hi <= d[1],
            "channel range {lo}..{hi} out of 0..{}",
            d[1]
        );
        let (n, _c, h, w) = (d[0], d[1], d[2], d[3]);
        let cw = hi - lo;
        let mut out = Tensor::zeros(&[n, cw, h, w]);
        let plane = h * w;
        for i in 0..n {
            let src_base = (i * d[1] + lo) * plane;
            let dst_base = i * cw * plane;
            out.data[dst_base..dst_base + cw * plane]
                .copy_from_slice(&self.data[src_base..src_base + cw * plane]);
        }
        out
    }

    /// Extracts columns `[lo, hi)` of an `[N, F]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the range is invalid.
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Tensor {
        let d = self.dims();
        assert_eq!(d.len(), 2, "slice_cols on rank-{} tensor", d.len());
        assert!(
            lo <= hi && hi <= d[1],
            "column range {lo}..{hi} out of 0..{}",
            d[1]
        );
        let (n, f) = (d[0], d[1]);
        let w = hi - lo;
        let mut out = Tensor::zeros(&[n, w]);
        for i in 0..n {
            out.data[i * w..(i + 1) * w].copy_from_slice(&self.data[i * f + lo..i * f + hi]);
        }
        out
    }

    /// Borrowed view of row `r` of an `[N, F]` tensor — no copy.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        self.rows(r, r + 1)
    }

    /// Borrowed view of rows `[lo, hi)` of an `[N, F]` tensor — no copy.
    ///
    /// # Example
    ///
    /// ```
    /// use fluid_tensor::Tensor;
    /// let t = Tensor::from_fn(&[3, 2], |i| i as f32);
    /// assert_eq!(t.rows(1, 3), &[2.0, 3.0, 4.0, 5.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the range is invalid.
    pub fn rows(&self, lo: usize, hi: usize) -> &[f32] {
        let d = self.dims();
        assert_eq!(d.len(), 2, "rows on rank-{} tensor", d.len());
        assert!(
            lo <= hi && hi <= d[0],
            "row range {lo}..{hi} out of 0..{}",
            d[0]
        );
        &self.data[lo * d[1]..hi * d[1]]
    }

    /// Borrowed view of example `i` along the first axis of any tensor of
    /// rank ≥ 1 (e.g. one `[C, H, W]` image of an `[N, C, H, W]` batch) —
    /// no copy.
    ///
    /// # Example
    ///
    /// ```
    /// use fluid_tensor::Tensor;
    /// let batch = Tensor::from_fn(&[2, 1, 2, 2], |i| i as f32);
    /// assert_eq!(batch.example(1), &[4.0, 5.0, 6.0, 7.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank 0 or `i` is out of range.
    pub fn example(&self, i: usize) -> &[f32] {
        let d = self.dims();
        assert!(!d.is_empty(), "example on rank-0 tensor");
        assert!(i < d[0], "example {i} out of {}", d[0]);
        let len = self.shape.strides()[0];
        &self.data[i * len..(i + 1) * len]
    }

    /// Extracts rows `[lo, hi)` of an `[N, F]` tensor as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the range is invalid.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Tensor {
        let data = self.rows(lo, hi).to_vec();
        Tensor::from_vec(data, &[hi - lo, self.dim(1)])
    }

    /// Concatenates `[N, C, H, W]` tensors along the channel axis.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or shapes disagree outside the channel axis.
    pub fn cat_channels(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "cat_channels of zero tensors");
        let d0 = parts[0].dims();
        assert_eq!(d0.len(), 4, "cat_channels on rank-{} tensor", d0.len());
        let (n, h, w) = (d0[0], d0[2], d0[3]);
        let mut c_total = 0;
        for p in parts {
            let d = p.dims();
            assert_eq!(d.len(), 4, "cat_channels part of rank {}", d.len());
            assert_eq!((d[0], d[2], d[3]), (n, h, w), "cat_channels shape mismatch");
            c_total += d[1];
        }
        let mut out = Tensor::zeros(&[n, c_total, h, w]);
        let plane = h * w;
        for i in 0..n {
            let mut c_off = 0;
            for p in parts {
                let pc = p.dim(1);
                let src = &p.data[i * pc * plane..(i + 1) * pc * plane];
                let dst_base = (i * c_total + c_off) * plane;
                out.data[dst_base..dst_base + pc * plane].copy_from_slice(src);
                c_off += pc;
            }
        }
        out
    }

    /// Returns a transposed copy of a rank-2 tensor.
    ///
    /// When a transposed *operand* is all that's needed,
    /// `t.view().transpose()` skips the copy entirely.
    ///
    /// # Example
    ///
    /// ```
    /// use fluid_tensor::Tensor;
    /// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
    /// assert_eq!(t.transpose().data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        let d = self.dims();
        assert_eq!(d.len(), 2, "transpose on rank-{} tensor", d.len());
        let (rows, cols) = (d[0], d[1]);
        Tensor::from_fn(&[cols, rows], |i| self.data[(i % rows) * cols + i / rows])
    }

    /// Maximum absolute difference to another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// `true` when every element is within `tol` of `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other) <= tol
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor (`[0]`).
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        let show = self.data.len().min(8);
        for (i, v) in self.data[..show].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > show {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 2]);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[3], 2.5);
        assert!(f.data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn eye_diagonal() {
        let e = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(e.at2(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot form shape")]
    fn from_vec_wrong_len_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_fn(&[2, 6], |i| i as f32);
        let r = t.reshape(&[3, 4]);
        assert_eq!(r.dims(), &[3, 4]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_bad_count_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.reshape(&[5]);
    }

    #[test]
    fn at4_layout_is_nchw() {
        let t = Tensor::from_fn(&[2, 3, 4, 5], |i| i as f32);
        assert_eq!(t.at4(0, 0, 0, 0), 0.0);
        assert_eq!(t.at4(0, 0, 0, 1), 1.0);
        assert_eq!(t.at4(0, 0, 1, 0), 5.0);
        assert_eq!(t.at4(0, 1, 0, 0), 20.0);
        assert_eq!(t.at4(1, 0, 0, 0), 60.0);
    }

    #[test]
    fn slice_channels_matches_at4() {
        let t = Tensor::from_fn(&[2, 4, 3, 3], |i| i as f32);
        let s = t.slice_channels(1, 3);
        assert_eq!(s.dims(), &[2, 2, 3, 3]);
        for n in 0..2 {
            for c in 0..2 {
                for h in 0..3 {
                    for w in 0..3 {
                        assert_eq!(s.at4(n, c, h, w), t.at4(n, c + 1, h, w));
                    }
                }
            }
        }
    }

    #[test]
    fn cat_channels_inverts_slice() {
        let t = Tensor::from_fn(&[2, 4, 3, 3], |i| (i as f32).sin());
        let lo = t.slice_channels(0, 2);
        let hi = t.slice_channels(2, 4);
        let back = Tensor::cat_channels(&[&lo, &hi]);
        assert_eq!(back, t);
    }

    #[test]
    fn slice_cols_matches_at2() {
        let t = Tensor::from_fn(&[3, 5], |i| i as f32);
        let s = t.slice_cols(1, 4);
        assert_eq!(s.dims(), &[3, 3]);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(s.at2(r, c), t.at2(r, c + 1));
            }
        }
    }

    #[test]
    fn slice_rows_basic() {
        let t = Tensor::from_fn(&[4, 2], |i| i as f32);
        let s = t.slice_rows(1, 3);
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn row_views_borrow_without_copying() {
        let t = Tensor::from_fn(&[4, 2], |i| i as f32);
        assert_eq!(t.row(1), &[2.0, 3.0]);
        assert_eq!(t.rows(1, 3), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.rows(2, 2), &[] as &[f32]);
        // The view aliases the tensor's own storage.
        assert_eq!(t.rows(0, 4).as_ptr(), t.data().as_ptr());
    }

    #[test]
    fn example_views_first_axis() {
        let t = Tensor::from_fn(&[3, 2, 2, 2], |i| i as f32);
        assert_eq!(
            t.example(1),
            &[8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
        );
        assert_eq!(t.example(0).len(), 8);
    }

    #[test]
    #[should_panic(expected = "row range")]
    fn rows_out_of_range_panics() {
        let _ = Tensor::zeros(&[2, 2]).rows(1, 3);
    }

    #[test]
    #[should_panic(expected = "row range 2..1 out of 0..3")]
    fn reversed_row_range_panics() {
        let _ = Tensor::zeros(&[3, 2]).rows(2, 1);
    }

    #[test]
    #[should_panic(expected = "example 3 out of 3")]
    fn example_out_of_range_panics() {
        let _ = Tensor::zeros(&[3, 4]).example(3);
    }

    #[test]
    #[should_panic(expected = "example on rank-0 tensor")]
    fn example_of_rank0_tensor_panics() {
        let _ = Tensor::zeros(&[]).example(0);
    }

    #[test]
    fn example_of_a_vector_is_one_element() {
        let v = Tensor::from_fn(&[4], |i| i as f32);
        assert_eq!(v.example(2), &[2.0]);
    }

    #[test]
    fn example_of_zero_size_images_is_empty() {
        assert!(Tensor::zeros(&[3, 0, 5]).example(2).is_empty());
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_fn(&[3, 4], |i| i as f32 * 0.5);
        assert_eq!(t.transpose().transpose(), t);
        assert_eq!(t.transpose().at2(2, 1), t.at2(1, 2));
    }

    #[test]
    fn transpose_moves_every_element_on_thin_shapes() {
        for (r, c) in [(1, 5), (5, 1), (0, 3), (3, 7)] {
            let t = Tensor::from_fn(&[r, c], |i| i as f32);
            let tt = t.transpose();
            assert_eq!(tt.dims(), &[c, r]);
            for (i, j) in (0..c).flat_map(|i| (0..r).map(move |j| (i, j))) {
                assert_eq!(tt.at2(i, j), t.at2(j, i), "({i}, {j}) of {r}x{c}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "transpose on rank-3 tensor")]
    fn transpose_of_rank3_tensor_panics() {
        let _ = Tensor::zeros(&[2, 2, 2]).transpose();
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::full(&[3], 1.0);
        let mut b = a.clone();
        b.data_mut()[1] = 1.0005;
        assert!(a.allclose(&b, 1e-3));
        assert!(!a.allclose(&b, 1e-4));
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(&[100]);
        let s = t.to_string();
        assert!(s.contains('…'));
    }
}
