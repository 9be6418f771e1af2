//! Reference (unoptimised, obviously-correct) tensor operations.
//!
//! Everything in this module is the *oracle* that the tiled and sparse
//! kernels in `pit-kernels` / `pit-core` are tested against. These functions
//! favour clarity over speed.

use crate::error::TensorError;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Reference dense matrix multiplication `C[m,n] = sum_k A[m,k] * B[k,n]`.
///
/// # Examples
///
/// ```
/// use pit_tensor::{ops, Tensor};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
/// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]).unwrap();
/// let c = ops::matmul(&a, &b).unwrap();
/// assert!(c.allclose(&a, 0.0));
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    check_rank(a, 2)?;
    check_rank(b, 2)?;
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    if k != k2 {
        return Err(TensorError::ContractionMismatch {
            lhs_inner: k,
            rhs_inner: k2,
        });
    }
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.data(), b.data());
    for i in 0..m {
        for p in 0..k {
            let av = ad[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(out, [m, n])
}

/// Elementwise addition of tensors with identical shapes.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    zip_elementwise(a, b, |x, y| x + y)
}

/// Row-wise softmax of a rank-2 tensor.
pub fn softmax_rows(a: &Tensor) -> Result<Tensor, TensorError> {
    check_rank(a, 2)?;
    let (r, c) = (a.shape().dim(0), a.shape().dim(1));
    let mut out = vec![0.0f32; r * c];
    for i in 0..r {
        let row = &a.data()[i * c..(i + 1) * c];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (j, &v) in row.iter().enumerate() {
            let e = (v - max).exp();
            out[i * c + j] = e;
            sum += e;
        }
        for v in &mut out[i * c..(i + 1) * c] {
            *v /= sum;
        }
    }
    Tensor::from_vec(out, [r, c])
}

/// Gathers rows of a rank-2 tensor into a new tensor in the given order.
///
/// This is the reference semantics of the paper's `SRead` on the `m`-axis:
/// the rows of the result are `a[perm[0]], a[perm[1]], ...`.
pub fn gather_rows(a: &Tensor, perm: &[usize]) -> Result<Tensor, TensorError> {
    check_rank(a, 2)?;
    let (r, c) = (a.shape().dim(0), a.shape().dim(1));
    let mut out = Vec::with_capacity(perm.len() * c);
    for &p in perm {
        if p >= r {
            return Err(TensorError::IndexOutOfBounds {
                index: p,
                extent: r,
                axis: 0,
            });
        }
        out.extend_from_slice(&a.data()[p * c..(p + 1) * c]);
    }
    Tensor::from_vec(out, [perm.len(), c])
}

/// Scatters the rows of `src` into a zero tensor of `rows` rows, placing row
/// `i` of `src` at row `perm[i]` — the reference semantics of `SWrite`.
pub fn scatter_rows(src: &Tensor, perm: &[usize], rows: usize) -> Result<Tensor, TensorError> {
    check_rank(src, 2)?;
    let c = src.shape().dim(1);
    if perm.len() != src.shape().dim(0) {
        return Err(TensorError::ShapeMismatch {
            lhs: vec![perm.len()],
            rhs: vec![src.shape().dim(0)],
        });
    }
    let mut out = Tensor::zeros([rows, c]);
    for (i, &p) in perm.iter().enumerate() {
        if p >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: p,
                extent: rows,
                axis: 0,
            });
        }
        let src_row = &src.data()[i * c..(i + 1) * c];
        out.data_mut()[p * c..(p + 1) * c].copy_from_slice(src_row);
    }
    Ok(out)
}

fn check_rank(t: &Tensor, expected: usize) -> Result<(), TensorError> {
    if t.rank() != expected {
        return Err(TensorError::RankMismatch {
            expected,
            actual: t.rank(),
        });
    }
    Ok(())
}

fn zip_elementwise(
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor, TensorError> {
    if !a.shape().same_as(b.shape()) {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let data = a
        .data()
        .iter()
        .zip(b.data().iter())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Ok(
        Tensor::from_vec(data, Shape::new(a.shape().dims().to_vec()))
            .expect("same length by construction"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::random([4, 4], 3);
        let mut eye = Tensor::zeros([4, 4]);
        for i in 0..4 {
            eye.set(&[i, i], 1.0).unwrap();
        }
        assert!(matmul(&a, &eye).unwrap().allclose(&a, 1e-6));
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::ContractionMismatch { .. })
        ));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::random([5, 9], 11);
        let s = softmax_rows(&a).unwrap();
        for i in 0..5 {
            let sum: f32 = s.row(i).unwrap().iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gather_then_scatter_is_identity_on_selected_rows() {
        let a = Tensor::random([6, 3], 5);
        let perm = vec![4, 1, 3];
        let g = gather_rows(&a, &perm).unwrap();
        let s = scatter_rows(&g, &perm, 6).unwrap();
        for &p in &perm {
            assert_eq!(s.row(p).unwrap(), a.row(p).unwrap());
        }
        assert_eq!(s.row(0).unwrap(), vec![0.0; 3]);
    }
}
