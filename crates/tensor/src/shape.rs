use std::fmt;

use crate::ShapeError;

/// Dimensions of a [`Tensor`](crate::Tensor), stored outermost-first.
///
/// A `Shape` is a thin, validated wrapper over `Vec<usize>` providing the
/// row-major stride/offset arithmetic used throughout the workspace.
///
/// # Example
///
/// ```
/// use alf_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// assert_eq!(s.offset(&[1, 2, 3]), 23);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a dimension list.
    ///
    /// A zero-dimensional shape (`&[]`) denotes a scalar with one element.
    pub fn new(dims: &[usize]) -> Self {
        Self(dims.to_vec())
    }

    /// The dimension list, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions (rank).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dimensions; 1 for scalars).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Linear offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or any coordinate is out of range.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.0.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.0.len()
        );
        let mut off = 0;
        let strides = self.strides();
        for (axis, (&i, &d)) in index.iter().zip(self.0.iter()).enumerate() {
            assert!(i < d, "index {i} out of range for axis {axis} of size {d}");
            off += i * strides[axis];
        }
        off
    }

    /// Checks this shape equals `other`, returning a [`ShapeError`] tagged
    /// with `op` otherwise.
    ///
    /// # Errors
    ///
    /// Returns an error when the dimension lists differ.
    pub fn expect_same(&self, other: &Shape, op: &str) -> Result<(), ShapeError> {
        if self == other {
            Ok(())
        } else {
            Err(ShapeError::new(op, format!("{self} vs {other}")))
        }
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

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::new(&[]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[4, 3, 2]);
        assert_eq!(s.strides(), vec![6, 2, 1]);
    }

    #[test]
    fn offset_walks_row_major_order() {
        let s = Shape::new(&[2, 3]);
        let mut seen = Vec::new();
        for i in 0..2 {
            for j in 0..3 {
                seen.push(s.offset(&[i, j]));
            }
        }
        assert_eq!(seen, (0..6).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn offset_rejects_out_of_range() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn offset_rejects_wrong_rank() {
        Shape::new(&[2, 2]).offset(&[0]);
    }

    #[test]
    fn expect_same_accepts_equal() {
        let a = Shape::new(&[2, 2]);
        assert!(a.expect_same(&Shape::new(&[2, 2]), "t").is_ok());
    }

    #[test]
    fn expect_same_reports_op() {
        let a = Shape::new(&[2, 2]);
        let err = a.expect_same(&Shape::new(&[3]), "myop").unwrap_err();
        assert_eq!(err.op(), "myop");
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::new(&[2, 3, 4]).to_string(), "[2x3x4]");
        assert_eq!(Shape::new(&[]).to_string(), "[]");
    }

    #[test]
    fn conversions_from_slice_and_vec() {
        let a: Shape = (&[1usize, 2][..]).into();
        let b: Shape = vec![1usize, 2].into();
        assert_eq!(a, b);
    }
}
