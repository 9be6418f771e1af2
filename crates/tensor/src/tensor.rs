//! The dense tensor type.

use crate::error::TensorError;
use crate::shape::Shape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A contiguous, row-major dense tensor of `f32` values.
///
/// This is deliberately the simplest tensor that can support the
/// reproduction: contiguous storage, row-major order, explicit copies for
/// layout changes. Sparsity is expressed *outside* the tensor (see
/// `pit-sparse`), exactly as in the paper where sparse values live in plain
/// dense buffers and only the *index* knows which micro-tiles are non-zero —
/// this is what makes PIT's zero-copy `SRead`/`SWrite` possible.
///
/// # Examples
///
/// ```
/// use pit_tensor::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
/// assert_eq!(t.get(&[1, 0]).unwrap(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Creates a tensor with i.i.d. uniform values in `[-1, 1)`, seeded.
    pub fn random(shape: impl Into<Shape>, seed: u64) -> Self {
        let shape = shape.into();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..shape.numel())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Tensor { data, shape }
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Immutable view of the flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads one element by multi-dimensional index.
    pub fn get(&self, idx: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.linearize(idx)?])
    }

    /// Writes one element by multi-dimensional index.
    pub fn set(&mut self, idx: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.linearize(idx)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a transposed copy of a rank-2 tensor.
    pub fn transpose2d(&self) -> Result<Self, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(Tensor {
            data: out,
            shape: Shape::matrix(c, r),
        })
    }

    /// Copies row `row` of a rank-2 tensor into a fresh `Vec`.
    pub fn row(&self, row: usize) -> Result<Vec<f32>, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        if row >= r {
            return Err(TensorError::IndexOutOfBounds {
                index: row,
                extent: r,
                axis: 0,
            });
        }
        Ok(self.data[row * c..(row + 1) * c].to_vec())
    }

    /// Returns true if the shapes match and every element pair is equal
    /// or differs by at most `tol`. A NaN is close to nothing, not even
    /// another NaN; equal infinities are close.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape.same_as(&other.shape)
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| a == b || (a - b).abs() <= tol)
    }

    /// Fraction of exactly-zero elements (the paper's "sparsity ratio").
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.len() - self.nnz();
        zeros as f64 / self.data.len() as f64
    }

    /// Number of non-zero elements: -0.0 counts as zero, NaN as non-zero.
    pub fn nnz(&self) -> usize {
        // Per-chunk `u32` counts vectorise where one `usize` count does
        // not; a chunk is short enough that its count cannot overflow.
        self.data
            .chunks(1 << 20)
            .map(|c| c.iter().map(|&v| u32::from(v != 0.0)).sum::<u32>() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_len() {
        assert!(Tensor::from_vec(vec![1.0; 5], [2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], [2, 3]).is_ok());
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros([3, 4]);
        t.set(&[2, 1], 7.5).unwrap();
        assert_eq!(t.get(&[2, 1]).unwrap(), 7.5);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
    }

    #[test]
    fn transpose_is_involution() {
        let t = Tensor::random([5, 7], 42);
        let tt = t.transpose2d().unwrap().transpose2d().unwrap();
        assert!(t.allclose(&tt, 0.0));
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor::random([4, 4], 1);
        let b = Tensor::random([4, 4], 1);
        let c = Tensor::random([4, 4], 2);
        assert!(a.allclose(&b, 0.0));
        assert!(!a.allclose(&c, 0.0));
    }

    #[test]
    fn sparsity_counts_exact_zeros() {
        let t = Tensor::from_vec(vec![0.0, 1.0, 0.0, 2.0], [4]).unwrap();
        assert_eq!(t.sparsity(), 0.5);
        let t = Tensor::from_vec(vec![-0.0, f32::NAN, 0.0, 2.0], [4]).unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.sparsity(), 0.5);
    }

    #[test]
    fn allclose_rejects_nan_and_accepts_equal_infinities() {
        let t = |v: Vec<f32>| Tensor::from_vec(v, [2]).unwrap();
        let finite = t(vec![1.0, 1.0]);
        assert!(!t(vec![f32::NAN, 1.0]).allclose(&finite, 0.0));
        assert!(!finite.allclose(&t(vec![1.0, f32::NAN]), f32::INFINITY));
        let nan = t(vec![f32::NAN, 1.0]);
        assert!(!nan.allclose(&nan, 0.0));
        let inf = t(vec![f32::INFINITY, f32::NEG_INFINITY]);
        assert!(inf.allclose(&inf, 0.0));
        assert!(!inf.allclose(&t(vec![f32::NEG_INFINITY, f32::NEG_INFINITY]), 0.0));
        assert!(!finite.allclose(&Tensor::zeros([1, 2]), f32::INFINITY));
    }

    #[test]
    fn row_extraction() {
        let t = Tensor::from_vec((0..12).map(|v| v as f32).collect(), [3, 4]).unwrap();
        assert_eq!(t.row(1).unwrap(), vec![4.0, 5.0, 6.0, 7.0]);
        assert!(t.row(3).is_err());
    }
}
