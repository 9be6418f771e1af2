//! Sputnik-style fine-grained SpMM baseline (Gale et al., SC '20).
//!
//! Sputnik improves on scalar CSR SpMM with 1-D tiling, vector memory
//! accesses and row swizzling, sustaining a substantially higher fraction
//! of peak than cuSPARSE on deep-learning sparsity, but still well below
//! dense tiles because its computation granularity follows individual rows.

use pit_gpusim::{CostModel, KernelStats};
use pit_sparse::formats::convert_cost;
use pit_tensor::DType;

/// Fraction of peak FLOP rate Sputnik sustains on DL sparsity.
pub const SPUTNIK_EFFICIENCY: f64 = 0.08;

/// Effective reuse factor of `B` traffic (vector loads + row swizzle).
pub const SPUTNIK_B_REUSE: f64 = 16.0;

/// Analytic-only SpMM cost for the Sputnik execution model.
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
    let compute = flops / (peak * SPUTNIK_EFFICIENCY);
    let traffic = nnz as f64 * (4.0 + elem as f64)
        + nnz as f64 * n as f64 * elem as f64 / SPUTNIK_B_REUSE
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

/// Conversion (dense → CSR) latency; Sputnik consumes CSR like cuSPARSE.
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
    fn sputnik_beats_cusparse() {
        // Figure 16: Sputnik outperforms cuSPARSE across granularities.
        let cost = CostModel::new(DeviceSpec::v100_32gb());
        let s = spmm_cost_only(&cost, 4096, 4096, 4096, 1_000_000, DType::F32);
        let c = crate::baselines::cusparse::spmm_cost_only(
            &cost,
            4096,
            4096,
            4096,
            1_000_000,
            DType::F32,
        );
        assert!(s.latency_s < c.latency_s);
    }
}
