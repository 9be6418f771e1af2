//! Dense tiled kernels: real host arithmetic + modelled device latency.

use crate::KernelOutput;
use pit_gpusim::cost::TileDims;
use pit_gpusim::{CostModel, KernelStats};
use pit_tensor::{ops, DType, Tensor, TensorError};

/// Dense `[m,k]×[k,n]` GEMM with the given tile shape: the real product
/// on the host, the modelled latency of the tiled device kernel.
///
/// The host computes row by row with [`mac_row`]. Tiling never changed an
/// element's accumulation order — every tile's k-passes visit `p` in
/// ascending order — so the tile shape only enters the modelled
/// statistics, and the result equals `pit_tensor::ops::matmul` exactly.
pub fn matmul_tiled(
    cost: &CostModel,
    a: &Tensor,
    b: &Tensor,
    tile: TileDims,
    dtype: DType,
) -> Result<KernelOutput, TensorError> {
    let (m, k, n) = matmul_dims(a, b)?;
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.data(), b.data());
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        mac_row(
            &mut out[i * n..(i + 1) * n],
            bd,
            n,
            arow.iter().copied().enumerate(),
        );
    }
    Ok(KernelOutput {
        tensor: Tensor::from_vec(out, [m, n])?,
        stats: matmul_cost_only(cost, m, k, n, tile, dtype),
    })
}

/// The `(m, k, n)` of the product `A[m,k]·B[k,n]`, or why it is undefined:
/// an operand that is not rank 2, or inner dimensions that differ.
pub fn matmul_dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: if a.rank() != 2 { a.rank() } else { b.rank() },
        });
    }
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    if k != k2 {
        return Err(TensorError::ContractionMismatch {
            lhs_inner: k,
            rhs_inner: k2,
        });
    }
    Ok((m, k, n))
}

/// The dense tile's multiply-accumulate on one output row:
/// `out[j] += a_p · b[p·ldb + j]` for every term `(p, a_p)`, in the order
/// given, skipping `a_p == 0` as `pit_tensor::ops::matmul` does. `b` is
/// read in place — row `p` of the B operand starts at `p·ldb`, so a column
/// strip of B is passed as the slice starting at the strip's first column.
///
/// An element stays in a register across up to four terms, but each term
/// is its own `+=`, applied in order: no reassociation and no fused
/// multiply-add, so a row fed its terms in ascending `p` is bit-identical
/// to the reference product's row.
///
/// # Panics
///
/// Panics if a term's B row does not fit in `b`.
pub fn mac_row(
    out: &mut [f32],
    b: &[f32],
    ldb: usize,
    terms: impl IntoIterator<Item = (usize, f32)>,
) {
    let w = out.len();
    let mut batch: [(f32, &[f32]); 4] = [(0.0, &[]); 4];
    let mut len = 0;
    for (p, av) in terms {
        if av == 0.0 {
            continue;
        }
        batch[len] = (av, &b[p * ldb..p * ldb + w]);
        len += 1;
        if len == batch.len() {
            let [(a0, b0), (a1, b1), (a2, b2), (a3, b3)] = batch;
            for ((((o, &x0), &x1), &x2), &x3) in out.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                let mut acc = *o;
                acc += a0 * x0;
                acc += a1 * x1;
                acc += a2 * x2;
                acc += a3 * x3;
                *o = acc;
            }
            len = 0;
        }
    }
    for &(av, brow) in &batch[..len] {
        for (o, &x) in out.iter_mut().zip(brow) {
            *o += av * x;
        }
    }
}

/// Analytic-only dense GEMM latency (no numeric result), for model-level
/// simulation where weights are never materialised.
pub fn matmul_cost_only(
    cost: &CostModel,
    m: usize,
    k: usize,
    n: usize,
    tile: TileDims,
    dtype: DType,
) -> KernelStats {
    let latency = cost.dense_gemm_latency(
        m,
        k,
        n,
        tile,
        dtype.size_bytes(),
        dtype.tensor_core_eligible(),
    );
    gemm_stats(m, k, n, tile, dtype, latency)
}

/// The statistics of a dense `[m,k]×[k,n]` GEMM run with `tile`, at a
/// modelled latency the caller already has.
pub(crate) fn gemm_stats(
    m: usize,
    k: usize,
    n: usize,
    tile: TileDims,
    dtype: DType,
    latency_s: f64,
) -> KernelStats {
    let elem = dtype.size_bytes();
    let flops = 2.0 * (m * k * n) as f64;
    KernelStats {
        flops_useful: flops,
        flops_executed: flops,
        bytes_read: ((m * k + k * n) * elem) as f64,
        bytes_written: (m * n * elem) as f64,
        tiles_executed: tile.tiles_over(m, n),
        latency_s,
    }
}

/// Memory-bound elementwise kernel stats (ReLU/GELU/bias/residual adds).
pub fn elementwise_cost(
    cost: &CostModel,
    numel: usize,
    dtype: DType,
    n_inputs: usize,
) -> KernelStats {
    let elem = dtype.size_bytes();
    let read = (numel * elem * n_inputs) as f64;
    let write = (numel * elem) as f64;
    KernelStats {
        flops_useful: numel as f64,
        flops_executed: numel as f64,
        bytes_read: read,
        bytes_written: write,
        tiles_executed: 0,
        latency_s: cost.elementwise(read, write),
    }
}

/// Row-softmax kernel stats: three memory passes (max, exp-sum, normalise)
/// fused into roughly two streams in practice; modelled as 2.5 passes.
pub fn softmax_cost(cost: &CostModel, rows: usize, cols: usize, dtype: DType) -> KernelStats {
    let bytes = (rows * cols * dtype.size_bytes()) as f64;
    let latency = cost.elementwise(1.5 * bytes, bytes);
    KernelStats {
        flops_useful: (rows * cols * 4) as f64,
        flops_executed: (rows * cols * 4) as f64,
        bytes_read: 1.5 * bytes,
        bytes_written: bytes,
        tiles_executed: 0,
        latency_s: latency,
    }
}

/// LayerNorm kernel stats: two read passes plus one write.
pub fn layernorm_cost(cost: &CostModel, rows: usize, cols: usize, dtype: DType) -> KernelStats {
    let bytes = (rows * cols * dtype.size_bytes()) as f64;
    let latency = cost.elementwise(2.0 * bytes, bytes);
    KernelStats {
        flops_useful: (rows * cols * 6) as f64,
        flops_executed: (rows * cols * 6) as f64,
        bytes_read: 2.0 * bytes,
        bytes_written: bytes,
        tiles_executed: 0,
        latency_s: latency,
    }
}

/// ReLU executed for real, with elementwise cost.
pub fn relu(cost: &CostModel, a: &Tensor, dtype: DType) -> KernelOutput {
    KernelOutput {
        tensor: ops::relu(a),
        stats: elementwise_cost(cost, a.numel(), dtype, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_gpusim::DeviceSpec;

    fn cost() -> CostModel {
        CostModel::new(DeviceSpec::a100_80gb())
    }

    #[test]
    fn tiled_matmul_matches_reference() {
        let cost = cost();
        let a = Tensor::random([50, 70], 1);
        let b = Tensor::random([70, 30], 2);
        let reference = ops::matmul(&a, &b).unwrap();
        for tile in [
            TileDims::new(8, 8, 8),
            TileDims::new(16, 16, 16),
            TileDims::new(32, 64, 32),
        ] {
            let out = matmul_tiled(&cost, &a, &b, tile, DType::F32).unwrap();
            assert_eq!(out.tensor, reference, "tile {tile} diverged");
        }
    }

    #[test]
    fn tiled_matmul_ragged_edges() {
        let cost = cost();
        // Dimensions deliberately not multiples of the tile.
        let a = Tensor::random([33, 17], 3);
        let b = Tensor::random([17, 41], 4);
        let reference = ops::matmul(&a, &b).unwrap();
        let out = matmul_tiled(&cost, &a, &b, TileDims::new(16, 16, 16), DType::F32).unwrap();
        assert_eq!(out.tensor, reference);
        assert_eq!(out.stats.tiles_executed, 3 * 3);
    }

    #[test]
    fn mac_row_applies_terms_one_at_a_time_in_order() {
        // In f32, ((((1e8 + 1) - 1e8) + 1) + 1) is 2, while any regrouping
        // such as (1e8 - 1e8) + (1 + 1 + 1) gives 3. Five terms cover the
        // four-term register batch and the tail.
        let b = [1e8f32, 1.0, -1e8, 1.0, 1.0];
        let mut out = [0.0f32];
        mac_row(&mut out, &b, 1, (0..5).map(|p| (p, 1.0)));
        assert_eq!(out, [2.0]);
        // A zero coefficient is skipped, not multiplied: 0 · inf would be NaN.
        let mut out = [0.0f32];
        mac_row(&mut out, &[f32::INFINITY, 3.0], 1, [(0, 0.0), (1, 2.0)]);
        assert_eq!(out, [6.0]);
    }

    #[test]
    fn cost_only_matches_tiled_stats() {
        let cost = cost();
        let a = Tensor::random([64, 64], 5);
        let b = Tensor::random([64, 64], 6);
        let tile = TileDims::new(32, 32, 32);
        let real = matmul_tiled(&cost, &a, &b, tile, DType::F32).unwrap();
        let analytic = matmul_cost_only(&cost, 64, 64, 64, tile, DType::F32);
        assert_eq!(real.stats.latency_s, analytic.latency_s);
        assert_eq!(real.stats.tiles_executed, analytic.tiles_executed);
    }

    #[test]
    fn shape_errors_propagate() {
        let cost = cost();
        let a = Tensor::random([4, 5], 1);
        let b = Tensor::random([6, 4], 2);
        assert!(matmul_tiled(&cost, &a, &b, TileDims::new(8, 8, 8), DType::F32).is_err());
    }

    #[test]
    fn fp16_gemm_is_faster_than_fp32() {
        let cost = cost();
        let s16 = matmul_cost_only(
            &cost,
            1024,
            1024,
            1024,
            TileDims::new(64, 32, 64),
            DType::F16,
        );
        let s32 = matmul_cost_only(
            &cost,
            1024,
            1024,
            1024,
            TileDims::new(64, 32, 64),
            DType::F32,
        );
        assert!(s16.latency_s < s32.latency_s);
    }

    #[test]
    fn relu_output_and_cost() {
        let cost = cost();
        let a = Tensor::from_vec(vec![-1.0, 2.0], [1, 2]).unwrap();
        let out = relu(&cost, &a, DType::F32);
        assert_eq!(out.tensor.data(), &[0.0, 2.0]);
        assert!(out.stats.latency_s > 0.0);
    }

    #[test]
    fn softmax_and_layernorm_costs_scale_with_size() {
        let cost = cost();
        let small = softmax_cost(&cost, 128, 128, DType::F32);
        let large = softmax_cost(&cost, 1024, 1024, DType::F32);
        assert!(large.latency_s > small.latency_s);
        let ln = layernorm_cost(&cost, 1024, 1024, DType::F32);
        assert!(ln.latency_s > 0.0);
    }
}
