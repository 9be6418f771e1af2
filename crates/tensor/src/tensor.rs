//! The dense tensor type.

use crate::dtype::DType;
use crate::error::TensorError;
use crate::shape::Shape;
use rand::distributions::Distribution;
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
    dtype: DType,
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
        Ok(Tensor {
            data,
            shape,
            dtype: DType::F32,
        })
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
            dtype: DType::F32,
        }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![value; shape.numel()],
            shape,
            dtype: DType::F32,
        }
    }

    /// Creates a tensor with i.i.d. uniform values in `[-1, 1)`, seeded.
    pub fn random(shape: impl Into<Shape>, seed: u64) -> Self {
        let shape = shape.into();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..shape.numel())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Tensor {
            data,
            shape,
            dtype: DType::F32,
        }
    }

    /// Creates a tensor with i.i.d. standard-normal values, seeded.
    pub fn randn(shape: impl Into<Shape>, seed: u64) -> Self {
        let shape = shape.into();
        let mut rng = StdRng::seed_from_u64(seed);
        let normal = rand::distributions::Standard;
        // Box-Muller on uniform pairs; avoids a statrs-style dependency.
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = Distribution::<f32>::sample(&normal, &mut rng).max(1e-7);
            let u2: f32 = Distribution::<f32>::sample(&normal, &mut rng);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        Tensor {
            data,
            shape,
            dtype: DType::F32,
        }
    }

    /// Overrides the logical dtype (storage stays `f32`).
    pub fn with_dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Logical dtype of the tensor.
    pub fn dtype(&self) -> DType {
        self.dtype
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

    /// Size in bytes on the modelled device (dtype-dependent).
    pub fn device_bytes(&self) -> usize {
        self.numel() * self.dtype.size_bytes()
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
            dtype: self.dtype,
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

    /// Maximum absolute difference between two tensors of identical shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Returns true if every element differs from `other` by at most `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        matches!(self.max_abs_diff(other), Ok(d) if d <= tol)
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
    fn device_bytes_tracks_dtype() {
        let t = Tensor::zeros([10, 10]);
        assert_eq!(t.device_bytes(), 400);
        assert_eq!(t.with_dtype(DType::F16).device_bytes(), 200);
    }

    #[test]
    fn randn_has_roughly_zero_mean() {
        let t = Tensor::randn([10_000], 7);
        let mean: f32 = t.data().iter().sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn row_extraction() {
        let t = Tensor::from_vec((0..12).map(|v| v as f32).collect(), [3, 4]).unwrap();
        assert_eq!(t.row(1).unwrap(), vec![4.0, 5.0, 6.0, 7.0]);
        assert!(t.row(3).is_err());
    }
}
