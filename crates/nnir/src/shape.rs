//! Tensor shapes.
//!
//! Shapes use the NCHW layout convention throughout the workspace: batched
//! image tensors are `[n, c, h, w]`, flattened feature vectors are `[n, f]`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A tensor shape (list of dimension extents).
///
/// ```
/// use vedliot_nnir::Shape;
///
/// let s = Shape::nchw(1, 3, 224, 224);
/// assert_eq!(s.elem_count(), 150_528);
/// assert_eq!(s.rank(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension extents.
    #[must_use]
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// Convenience constructor for a batched image tensor `[n, c, h, w]`.
    #[must_use]
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape(vec![n, c, h, w])
    }

    /// Convenience constructor for a matrix `[n, f]`.
    #[must_use]
    pub fn nf(n: usize, f: usize) -> Self {
        Shape(vec![n, f])
    }

    /// Scalar shape (rank 0, one element).
    #[must_use]
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of dimensions.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Dimension extents as a slice.
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Extent of dimension `i`, or `None` if out of range.
    #[must_use]
    pub fn dim(&self, i: usize) -> Option<usize> {
        self.0.get(i).copied()
    }

    /// Total number of elements (product of extents; 1 for scalars).
    /// Unchecked: a graph that passed the verifier's `V010` check holds
    /// no shape whose product overflows.
    #[must_use]
    pub fn elem_count(&self) -> usize {
        self.0.iter().product()
    }

    /// [`Shape::elem_count`], or `None` when the element count, or its
    /// size in bytes as f32, does not fit in `usize`: no buffer could
    /// hold such a tensor.
    #[must_use]
    pub fn checked_elem_count(&self) -> Option<usize> {
        self.0
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .filter(|n| n.checked_mul(std::mem::size_of::<f32>()).is_some())
    }

    /// Batch dimension (`dims[0]`), defaulting to 1 for scalars.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.0.first().copied().unwrap_or(1)
    }

    /// Returns a copy with the batch dimension replaced.
    ///
    /// # Panics
    ///
    /// Panics if the shape is rank 0.
    #[must_use]
    pub fn with_batch(&self, n: usize) -> Self {
        assert!(self.rank() > 0, "cannot set batch on a scalar shape");
        let mut dims = self.0.clone();
        dims[0] = n;
        Shape(dims)
    }

    /// Whether two shapes are identical in every non-batch dimension.
    #[must_use]
    pub fn same_features(&self, other: &Shape) -> bool {
        self.rank() == other.rank() && self.0[1..] == other.0[1..]
    }

    /// Row-major strides for this shape.
    #[must_use]
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Linear (row-major) offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or any coordinate is out of range.
    #[must_use]
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        let mut off = 0;
        let strides = self.strides();
        for (i, (&x, &s)) in idx.iter().zip(strides.iter()).enumerate() {
            assert!(x < self.0[i], "index {x} out of range in dim {i}");
            off += x * s;
        }
        off
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_count_and_rank() {
        let s = Shape::nchw(2, 3, 4, 5);
        assert_eq!(s.rank(), 4);
        assert_eq!(s.elem_count(), 120);
        assert_eq!(Shape::scalar().elem_count(), 1);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::nchw(2, 3, 4, 5);
        assert_eq!(s.strides(), vec![60, 20, 5, 1]);
    }

    #[test]
    fn offset_round_trip() {
        let s = Shape::nchw(2, 3, 4, 5);
        assert_eq!(s.offset(&[0, 0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3, 4]), 60 + 40 + 15 + 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_rejects_out_of_range() {
        let _ = Shape::nf(2, 3).offset(&[0, 3]);
    }

    #[test]
    fn with_batch_changes_only_batch() {
        let s = Shape::nchw(1, 3, 8, 8).with_batch(4);
        assert_eq!(s.dims(), &[4, 3, 8, 8]);
        assert!(s.same_features(&Shape::nchw(9, 3, 8, 8)));
        assert!(!s.same_features(&Shape::nchw(4, 4, 8, 8)));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::nchw(1, 3, 224, 224).to_string(), "[1x3x224x224]");
    }
}
