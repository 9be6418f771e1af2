//! cuSPARSE-style CSR SpMM baseline.
//!
//! Structure modelled: scalar-row CSR×dense SpMM. Each non-zero performs a
//! gather of one `B` row segment with poor cross-row reuse, so throughput is
//! a small fraction of peak — the library's own documentation and the
//! Sputnik paper (SC '20) both report cuSPARSE at a few percent of dense
//! GEMM throughput on deep-learning sparsity (unstructured, 70–99%).

use pit_gpusim::{CostModel, KernelStats};
use pit_sparse::formats::convert_cost;
use pit_tensor::DType;

/// Fraction of peak FLOP rate a scalar CSR SpMM sustains on DL sparsity.
pub const CUSPARSE_EFFICIENCY: f64 = 0.02;

/// Effective reuse factor of `B` traffic through L2 for scalar CSR SpMM.
pub const CUSPARSE_B_REUSE: f64 = 4.0;

/// Analytic-only SpMM cost for the cuSPARSE execution model.
pub fn spmm_cost_only(
    cost: &CostModel,
    m: usize,
    _k: usize,
    n: usize,
    nnz: usize,
    dtype: DType,
) -> KernelStats {
    let elem = dtype.size_bytes();
    let flops = 2.0 * nnz as f64 * n as f64;
    let peak = cost.device().flops_per_sm(false) * cost.device().num_sms as f64;
    let compute = flops / (peak * CUSPARSE_EFFICIENCY);
    let traffic = nnz as f64 * (4.0 + elem as f64)
        + nnz as f64 * n as f64 * elem as f64 / CUSPARSE_B_REUSE
        + (m * n * elem) as f64;
    let memory = traffic / cost.device().bw_total();
    KernelStats {
        flops_useful: flops,
        flops_executed: flops,
        bytes_read: traffic - (m * n * elem) as f64,
        bytes_written: (m * n * elem) as f64,
        tiles_executed: 0,
        latency_s: compute.max(memory) + cost.device().kernel_launch_s,
    }
}

/// Conversion (dense → CSR) latency for dynamic-sparsity use: the paper's
/// "PyTorch-S Convert" bar when cuSPARSE is the backend.
pub fn conversion_cost(
    cost: &CostModel,
    rows: usize,
    cols: usize,
    nnz: usize,
    dtype: DType,
) -> f64 {
    convert_cost::csr_via_nonzero_sort(cost, rows, cols, nnz, dtype.size_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_gpusim::DeviceSpec;

    #[test]
    fn latency_scales_with_nnz() {
        let cost = CostModel::new(DeviceSpec::v100_32gb());
        let lo = spmm_cost_only(&cost, 4096, 4096, 4096, 100_000, DType::F32);
        let hi = spmm_cost_only(&cost, 4096, 4096, 4096, 1_000_000, DType::F32);
        assert!(hi.latency_s > 5.0 * lo.latency_s);
    }

    #[test]
    fn dense_like_nnz_is_slower_than_dense_gemm() {
        // At 50% density, cuSPARSE should lose badly to a dense GEMM —
        // Figure 3b's observation that conversion+sparse execution can be
        // worse than just computing densely.
        let cost = CostModel::new(DeviceSpec::v100_32gb());
        let db = crate::tiles::TileDb::profile(&cost);
        let sparse = spmm_cost_only(&cost, 4096, 4096, 4096, 8 * 1024 * 1024, DType::F32);
        let dense =
            crate::baselines::cublas::gemm_cost_only(&cost, &db, 4096, 4096, 4096, DType::F32);
        assert!(sparse.latency_s > dense.latency_s);
    }
}
