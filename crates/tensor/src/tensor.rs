use std::fmt;

use crate::init::Init;
use crate::rng::Rng;
use crate::{Shape, ShapeError};

/// Owned, row-major, dense `f32` tensor.
///
/// `Tensor` is the single numerical container used across the workspace:
/// activations, weights, gradients, masks and datasets are all `Tensor`s.
/// Operations that can fail on shape grounds return
/// [`ShapeError`]; indexed accessors panic on out-of-range
/// indices (documented per method) because those indicate internal logic
/// errors rather than recoverable conditions.
///
/// # Example
///
/// ```
/// use alf_tensor::Tensor;
///
/// # fn main() -> Result<(), alf_tensor::ShapeError> {
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// assert_eq!(t.at(&[1, 2]), 6.0);
/// assert_eq!(t.sum(), 21.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    // ----- constructors ---------------------------------------------------

    /// All-zero tensor of the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// All-one tensor of the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Tensor filled with a constant value.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Self {
            shape,
            data: vec![value; len],
        }
    }

    /// Square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor from raw data in row-major order.
    ///
    /// # Errors
    ///
    /// Returns an error if `data.len()` does not equal the shape's element
    /// count.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, ShapeError> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(ShapeError::new(
                "from_vec",
                format!("{} elements vs shape {shape}", data.len()),
            ));
        }
        Ok(Self { shape, data })
    }

    /// Builds a tensor by evaluating `f` at each linear index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(&mut f).collect();
        Self { shape, data }
    }

    /// Random tensor drawn via the given initialiser.
    pub fn randn(dims: &[usize], init: Init, rng: &mut Rng) -> Self {
        let mut t = Self::zeros(dims);
        init.fill(&mut t, rng);
        t
    }

    // ----- inspection -----------------------------------------------------

    /// Shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension list, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the backing row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is invalid.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is invalid.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    // ----- shape manipulation ----------------------------------------------

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns an error when the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, ShapeError> {
        let shape = Shape::new(dims);
        if shape.len() != self.len() {
            return Err(ShapeError::new(
                "reshape",
                format!("{} vs {shape}", self.shape),
            ));
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Transposed copy of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error when the tensor is not rank 2.
    pub fn transpose2(&self) -> Result<Tensor, ShapeError> {
        if self.shape.rank() != 2 {
            return Err(ShapeError::new(
                "transpose2",
                format!("expected rank 2, got {}", self.shape),
            ));
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    // ----- elementwise -----------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two equally-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes differ.
    pub fn zip_map(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, ShapeError> {
        self.shape.expect_same(&other.shape, "zip_map")?;
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns an error when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), ShapeError> {
        self.shape.expect_same(&other.shape, "axpy")?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scaled copy.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| alpha * x)
    }

    /// Sets all elements to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    // ----- reductions -------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element — [`argmax`] over the flat data.
    pub fn argmax(&self) -> usize {
        argmax(&self.data)
    }

    /// Sum of squares of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Mean of absolute values (the L1 mask regulariser of the paper).
    pub fn mean_abs(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().map(|x| x.abs()).sum::<f32>() / self.data.len() as f32
        }
    }

    /// Number of elements whose absolute value is at most `eps`.
    pub fn count_near_zero(&self, eps: f32) -> usize {
        self.data.iter().filter(|x| x.abs() <= eps).count()
    }

    /// Dot product with another tensor of identical shape.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32, ShapeError> {
        self.shape.expect_same(&other.shape, "dot")?;
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Returns `true` when every element is within `tol` of the matching
    /// element of `other` (shapes must match exactly).
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} n={}", self.shape, self.len())?;
        if self.len() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

/// Index of the maximum of `values`: the one top-1 rule of the workspace
/// (training accuracy, both serving engines, [`Tensor::argmax`]). The fold
/// starts from `−∞` and moves only on a strict `>`, so the first of equal
/// maxima wins, a NaN is never chosen, and an empty or all-NaN slice gives
/// 0.
///
/// ```
/// assert_eq!(alf_tensor::argmax(&[f32::NAN, 1.0, 3.0]), 2);
/// ```
pub fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .fold((0, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
            if v > bv {
                (i, v)
            } else {
                (bi, bv)
            }
        })
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).sum(), 7.5);
    }

    #[test]
    fn eye_is_identity() {
        let i3 = Tensor::eye(3);
        assert_eq!(i3.at(&[0, 0]), 1.0);
        assert_eq!(i3.at(&[0, 1]), 0.0);
        assert_eq!(i3.sum(), 3.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn from_fn_indexes_linearly() {
        let t = Tensor::from_fn(&[2, 2], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 3], |i| i as f32);
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4]).is_err());
    }

    #[test]
    fn transpose2_swaps_axes() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose2().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), 6.0);
        assert!(Tensor::zeros(&[2, 2, 2]).transpose2().is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert!(a.add(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::full(&[3], 2.0);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-1.0, 4.0, 2.0, -3.0], &[4]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.argmax(), 1);
        assert_eq!(t.sq_norm(), 1.0 + 16.0 + 4.0 + 9.0);
        assert_eq!(t.mean_abs(), 2.5);
    }

    #[test]
    fn count_near_zero_uses_threshold() {
        let t = Tensor::from_vec(vec![0.0, 0.05, -0.2, 1.0], &[4]).unwrap();
        assert_eq!(t.count_near_zero(0.1), 2);
        assert_eq!(t.count_near_zero(0.0), 1);
    }

    #[test]
    fn dot_matches_manual() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn allclose_tolerates_small_differences() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0 + 1e-6, 2.0 - 1e-6], &[2]).unwrap();
        assert!(a.allclose(&b, 1e-5));
        assert!(!a.allclose(&b, 1e-8));
        assert!(!a.allclose(&Tensor::zeros(&[3]), 1.0));
    }

    #[test]
    fn at_mut_writes_through() {
        let mut t = Tensor::zeros(&[2, 2]);
        *t.at_mut(&[1, 0]) = 9.0;
        assert_eq!(t.at(&[1, 0]), 9.0);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(&[2]);
        assert!(!t.to_string().is_empty());
    }
}
