//! cuBLAS-style dense GEMM baseline: heuristic tile pick, no sparsity.

use crate::dense;
use crate::tiles::TileDb;
use crate::KernelOutput;
use pit_gpusim::{CostModel, KernelStats};
use pit_tensor::{DType, Tensor, TensorError};

/// Dense GEMM with the library's best tile for the problem shape.
pub fn gemm(
    cost: &CostModel,
    db: &TileDb,
    a: &Tensor,
    b: &Tensor,
    dtype: DType,
) -> Result<KernelOutput, TensorError> {
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let n = b.shape().dim(1);
    let tile = db
        .best_dense_tile(cost, m, k, n, dtype.tensor_core_eligible())
        .dims;
    dense::matmul_tiled(cost, a, b, tile, dtype)
}

/// Analytic-only variant for model-level simulation: the statistics
/// [`dense::matmul_cost_only`] reports for the library's best tile, at
/// the latency the tile table priced it at.
pub fn gemm_cost_only(
    cost: &CostModel,
    db: &TileDb,
    m: usize,
    k: usize,
    n: usize,
    dtype: DType,
) -> KernelStats {
    let (tile, latency) = db.best_dense_gemm(cost, m, k, n, dtype.tensor_core_eligible());
    dense::gemm_stats(m, k, n, tile.dims, dtype, latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_gpusim::DeviceSpec;
    use pit_tensor::ops;

    #[test]
    fn gemm_matches_reference() {
        let cost = CostModel::new(DeviceSpec::a100_80gb());
        let db = TileDb::profile(&cost);
        let a = Tensor::random([40, 60], 1);
        let b = Tensor::random([60, 50], 2);
        let out = gemm(&cost, &db, &a, &b, DType::F32).unwrap();
        assert!(out.tensor.allclose(&ops::matmul(&a, &b).unwrap(), 1e-4));
    }

    #[test]
    fn fp16_uses_tensor_cores_and_is_faster() {
        let cost = CostModel::new(DeviceSpec::a100_80gb());
        let db = TileDb::profile(&cost);
        let f32 = gemm_cost_only(&cost, &db, 4096, 4096, 4096, DType::F32);
        let f16 = gemm_cost_only(&cost, &db, 4096, 4096, 4096, DType::F16);
        assert!(f16.latency_s < f32.latency_s / 2.0);
    }
}
