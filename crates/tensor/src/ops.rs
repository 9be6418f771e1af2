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

/// Reference batched matrix multiplication over rank-3 tensors
/// `C[b,m,n] = sum_k A[b,m,k] * B[b,k,n]`.
pub fn batch_matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    check_rank(a, 3)?;
    check_rank(b, 3)?;
    let (ba, m, k) = (a.shape().dim(0), a.shape().dim(1), a.shape().dim(2));
    let (bb, k2, n) = (b.shape().dim(0), b.shape().dim(1), b.shape().dim(2));
    if ba != bb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    if k != k2 {
        return Err(TensorError::ContractionMismatch {
            lhs_inner: k,
            rhs_inner: k2,
        });
    }
    let mut out = vec![0.0f32; ba * m * n];
    for bi in 0..ba {
        let abase = bi * m * k;
        let bbase = bi * k * n;
        let obase = bi * m * n;
        for i in 0..m {
            for p in 0..k {
                let av = a.data()[abase + i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[obase + i * n + j] += av * b.data()[bbase + p * n + j];
                }
            }
        }
    }
    Tensor::from_vec(out, [ba, m, n])
}

/// Elementwise addition of tensors with identical shapes.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    zip_elementwise(a, b, |x, y| x + y)
}

/// Applies the rectified linear unit elementwise.
pub fn relu(a: &Tensor) -> Tensor {
    map(a, |x| x.max(0.0))
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

/// Sum-reduction along the last axis of a rank-2 tensor: `C[p] = sum_l A[p,l]`.
pub fn reduce_sum_rows(a: &Tensor) -> Result<Tensor, TensorError> {
    check_rank(a, 2)?;
    let (r, c) = (a.shape().dim(0), a.shape().dim(1));
    let out: Vec<f32> = (0..r)
        .map(|i| a.data()[i * c..(i + 1) * c].iter().sum())
        .collect();
    Tensor::from_vec(out, [r])
}

/// Layer normalisation along the last axis of a rank-2 tensor.
pub fn layernorm_rows(a: &Tensor, eps: f32) -> Result<Tensor, TensorError> {
    check_rank(a, 2)?;
    let (r, c) = (a.shape().dim(0), a.shape().dim(1));
    let mut out = vec![0.0f32; r * c];
    for i in 0..r {
        let row = &a.data()[i * c..(i + 1) * c];
        let mean: f32 = row.iter().sum::<f32>() / c as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / c as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for (j, &v) in row.iter().enumerate() {
            out[i * c + j] = (v - mean) * inv;
        }
    }
    Tensor::from_vec(out, [r, c])
}

/// Reference 2-D convolution, NCHW input and FCHW filters, stride 1, valid
/// padding: `C[n,f,x,y] = sum_{m,i,j} A[n,m,x+i,y+j] * W[f,m,i,j]`.
///
/// This exists chiefly so the expression-IR tests can check Theorem 1's
/// claim that the `x`/`y`/`i`/`j` axes of convolution are *not* PIT-axes
/// while `n`/`m`/`f` are — against a real operator.
pub fn conv2d(a: &Tensor, w: &Tensor) -> Result<Tensor, TensorError> {
    check_rank(a, 4)?;
    check_rank(w, 4)?;
    let (n, m, h, wd) = (
        a.shape().dim(0),
        a.shape().dim(1),
        a.shape().dim(2),
        a.shape().dim(3),
    );
    let (f, m2, kh, kw) = (
        w.shape().dim(0),
        w.shape().dim(1),
        w.shape().dim(2),
        w.shape().dim(3),
    );
    if m != m2 {
        return Err(TensorError::ContractionMismatch {
            lhs_inner: m,
            rhs_inner: m2,
        });
    }
    let oh = h - kh + 1;
    let ow = wd - kw + 1;
    let mut out = Tensor::zeros([n, f, oh, ow]);
    for ni in 0..n {
        for fi in 0..f {
            for x in 0..oh {
                for y in 0..ow {
                    let mut acc = 0.0f32;
                    for mi in 0..m {
                        for i in 0..kh {
                            for j in 0..kw {
                                acc += a.get(&[ni, mi, x + i, y + j]).expect("in bounds")
                                    * w.get(&[fi, mi, i, j]).expect("in bounds");
                            }
                        }
                    }
                    out.set(&[ni, fi, x, y], acc).expect("in bounds");
                }
            }
        }
    }
    Ok(out)
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

fn map(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let data = a.data().iter().map(|&x| f(x)).collect();
    Tensor::from_vec(data, Shape::new(a.shape().dims().to_vec())).expect("same length")
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
    fn batch_matmul_matches_per_batch_matmul() {
        let a = Tensor::random([3, 4, 5], 1);
        let b = Tensor::random([3, 5, 6], 2);
        let c = batch_matmul(&a, &b).unwrap();
        for bi in 0..3 {
            let asl = Tensor::from_vec(a.data()[bi * 20..(bi + 1) * 20].to_vec(), [4, 5]).unwrap();
            let bsl = Tensor::from_vec(b.data()[bi * 30..(bi + 1) * 30].to_vec(), [5, 6]).unwrap();
            let csl = matmul(&asl, &bsl).unwrap();
            let got = Tensor::from_vec(c.data()[bi * 24..(bi + 1) * 24].to_vec(), [4, 6]).unwrap();
            assert!(got.allclose(&csl, 1e-5));
        }
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
    fn relu_zeroes_negatives() {
        let a = Tensor::from_vec(vec![-1.0, 2.0, -3.0], [3]).unwrap();
        assert_eq!(relu(&a).data(), &[0.0, 2.0, 0.0]);
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

    #[test]
    fn reduce_sum_rows_basic() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]).unwrap();
        assert_eq!(reduce_sum_rows(&a).unwrap().data(), &[3.0, 7.0]);
    }

    #[test]
    fn layernorm_rows_zero_mean_unit_var() {
        let a = Tensor::random([4, 64], 9);
        let ln = layernorm_rows(&a, 1e-5).unwrap();
        for i in 0..4 {
            let row = ln.row(i).unwrap();
            let mean: f32 = row.iter().sum::<f32>() / 64.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn conv2d_matches_hand_computed() {
        // 1x1x3x3 input, 1x1x2x2 kernel of ones => 2x2 output of window sums.
        let a = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), [1, 1, 3, 3]).unwrap();
        let w = Tensor::full([1, 1, 2, 2], 1.0);
        let c = conv2d(&a, &w).unwrap();
        assert_eq!(c.data(), &[12.0, 16.0, 24.0, 28.0]);
    }
}
