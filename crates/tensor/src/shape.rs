//! Shape utilities for row-major tensors: dimension extents plus strides.

/// Maximum tensor rank. Everything in this workspace is at most
/// `[N, C, H, W]`; the inline bound is what lets [`Shape`] live entirely
/// on the stack, so creating a tensor (or a [`TensorView`]) around an
/// existing buffer performs **zero heap allocation** — the hot-path
/// contract of the serving and training layers.
///
/// [`TensorView`]: crate::TensorView
pub const MAX_RANK: usize = 4;

/// A tensor shape: the extent of each dimension (outermost first) plus
/// the element stride of each dimension.
///
/// Both arrays are stored inline (no heap) up to [`MAX_RANK`] dimensions.
/// A shape built by [`Shape::new`] is row-major (C order): the last
/// dimension is contiguous in memory. The one other layout in this
/// workspace is a transposed view, which swaps two dims and their strides
/// without moving data.
///
/// **Equality and hashing consider only the dimension extents**, never
/// the strides: a `[3, 4]` tensor and the transposed view of a `[4, 3]`
/// tensor have *equal shapes*, because shape identity is the logical
/// extent of the data, and strides are merely where it lives.
///
/// # Example
///
/// ```
/// use fluid_tensor::Shape;
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), &[12, 4, 1]);
/// assert!(s.is_contiguous());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    // Invariant: `dims[rank..]` and `strides[rank..]` are zero, so every
    // construction path produces one canonical form.
    dims: [usize; MAX_RANK],
    strides: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Creates a contiguous row-major shape from a slice of dimension
    /// extents.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() > MAX_RANK`.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "rank {} exceeds MAX_RANK {MAX_RANK}",
            dims.len()
        );
        let mut inline = [0usize; MAX_RANK];
        inline[..dims.len()].copy_from_slice(dims);
        let mut strides = [0usize; MAX_RANK];
        if !dims.is_empty() {
            strides[dims.len() - 1] = 1;
            for i in (0..dims.len() - 1).rev() {
                strides[i] = strides[i + 1] * inline[i + 1];
            }
        }
        Self {
            dims: inline,
            strides,
            rank: dims.len(),
        }
    }

    /// The dimension extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// The per-dimension strides, in elements.
    pub fn strides(&self) -> &[usize] {
        &self.strides[..self.rank]
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// `true` when the strides are exactly the row-major strides of the
    /// dims — i.e. the elements sit consecutively in C order.
    pub fn is_contiguous(&self) -> bool {
        let mut expect = 1usize;
        for i in (0..self.rank).rev() {
            if self.strides[i] != expect {
                return false;
            }
            expect *= self.dims[i];
        }
        true
    }

    /// Extent of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank()`.
    pub fn dim(&self, i: usize) -> usize {
        assert!(
            i < self.rank,
            "dimension {i} out of range for rank {}",
            self.rank
        );
        self.dims[i]
    }

    /// Returns the shape with dimensions (and their strides) `a` and `b`
    /// swapped — the layout algebra of a zero-copy transpose.
    ///
    /// # Panics
    ///
    /// Panics if either axis is out of range.
    pub(crate) fn swapped(&self, a: usize, b: usize) -> Self {
        assert!(
            a < self.rank && b < self.rank,
            "swap axes ({a}, {b}) out of range for rank {}",
            self.rank
        );
        let mut out = *self;
        out.dims.swap(a, b);
        out.strides.swap(a, b);
        out
    }
}

// Equality/hashing over dims + rank only (see the type docs): two layouts
// of the same logical extents are the same shape. The canonical-zero
// invariant on `dims[rank..]` keeps this cheap.
impl PartialEq for Shape {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank && self.dims == other.dims
    }
}

impl Eq for Shape {}

impl std::hash::Hash for Shape {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.rank.hash(state);
        self.dims.hash(state);
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// Total element count of a dims slice.
///
/// # Example
///
/// ```
/// assert_eq!(fluid_tensor::numel(&[2, 3]), 6);
/// ```
pub fn numel(dims: &[usize]) -> usize {
    dims.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), &[12, 4, 1]);
        assert!(s.is_contiguous());
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rank(), 0);
        assert!(s.strides().is_empty());
        assert!(s.is_contiguous());
    }

    #[test]
    fn one_dim() {
        let s = Shape::new(&[7]);
        assert_eq!(s.numel(), 7);
        assert_eq!(s.strides(), &[1]);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "[2, 3]");
    }

    #[test]
    fn from_vec() {
        let s: Shape = vec![4, 5].into();
        assert_eq!(s.dims(), &[4, 5]);
    }

    #[test]
    fn zero_extent_dim_gives_zero_numel() {
        let s = Shape::new(&[3, 0, 2]);
        assert_eq!(s.numel(), 0);
    }

    #[test]
    fn equality_ignores_trailing_storage() {
        // Different construction paths must canonicalise identically.
        assert_eq!(Shape::new(&[2, 3]), Shape::from(vec![2, 3]));
        assert_ne!(Shape::new(&[2, 3]), Shape::new(&[2, 3, 1]));
    }

    #[test]
    fn equality_ignores_strides() {
        // Shape identity is the logical extents; a transposed layout of
        // the same extents is the same shape.
        let contiguous = Shape::new(&[4, 3]);
        let transposed = Shape::new(&[3, 4]).swapped(0, 1);
        assert_eq!(contiguous, transposed);
        assert!(!transposed.is_contiguous());
        // Hash must agree with Eq.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |s: &Shape| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&contiguous), h(&transposed));
    }

    #[test]
    fn swapped_exchanges_dims_and_strides() {
        let s = Shape::new(&[2, 3, 4]).swapped(1, 2);
        assert_eq!(s.dims(), &[2, 4, 3]);
        assert_eq!(s.strides(), &[12, 1, 4]);
        assert!(!s.is_contiguous());
    }

    #[test]
    #[should_panic(expected = "swap axes (0, 2) out of range for rank 2")]
    fn swapped_out_of_range_panics() {
        let _ = Shape::new(&[2, 3]).swapped(0, 2);
    }

    #[test]
    #[should_panic(expected = "dimension 2 out of range for rank 2")]
    fn dim_out_of_range_panics() {
        let _ = Shape::new(&[2, 3]).dim(2);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RANK")]
    fn rank_overflow_panics() {
        let _ = Shape::new(&[1, 2, 3, 4, 5]);
    }
}
