//! SparTA-style ahead-of-time specialised sparse kernels (OSDI '22).
//!
//! SparTA compiles a kernel specialised to one *static* sparsity pattern
//! (Tensor-with-Sparsity-Attribute propagation + dead-block elimination +
//! per-pattern code specialisation). We model its two execution modes and
//! let it pick the better one per pattern, mirroring its search:
//!
//! 1. **aligned block execution**: choose the dense tile whose shape best
//!    aligns with the pattern and execute only non-zero tiles (no
//!    micro-tile merging — the tile must sit directly on the data);
//! 2. **specialised fine-grained execution**: Sputnik-style traversal with
//!    indices baked into the generated code, somewhat more efficient than
//!    a generic fine-grained library.
//!
//! Its Achilles heel, per the paper (§2.2, Figure 3b), is the compile time:
//! 400–600 s per pattern, hopeless for dynamic sparsity. That cost is
//! exposed as [`compile_cost`] and charged by the end-to-end experiments
//! whenever the pattern changes.

use crate::tiles::CUDA_CORE_TILES;
use pit_gpusim::{CostModel, KernelStats};
use pit_sparse::formats::convert_cost::SPARTA_COMPILE_S;
use pit_sparse::{cover_count, Mask};
use pit_tensor::DType;

/// Efficiency of SparTA's specialised fine-grained code path: above
/// Sputnik's generic kernels (indices are compiled in) but far below dense
/// tiles.
pub const SPARTA_FINE_EFFICIENCY: f64 = 0.12;

/// One-off kernel specialisation latency (seconds).
pub fn compile_cost() -> f64 {
    SPARTA_COMPILE_S
}

/// Analytic cost of SparTA's specialised kernel for `[M,K]` pattern `mask`
/// multiplied against a dense `[K, n]`.
pub fn spmm_cost_only(cost: &CostModel, mask: &Mask, n: usize, dtype: DType) -> KernelStats {
    let aligned = best_aligned_cost(cost, mask, n, dtype);
    let fine = fine_grained_cost(cost, mask, n, dtype);
    if aligned.latency_s <= fine.latency_s {
        aligned
    } else {
        fine
    }
}

/// Mode 1: best sparsity-aligned dense tiling (no merging).
fn best_aligned_cost(cost: &CostModel, mask: &Mask, n: usize, dtype: DType) -> KernelStats {
    let tensor_core = dtype.tensor_core_eligible();
    let elem = dtype.size_bytes();
    let nnz = mask.nnz();
    let mut best: Option<KernelStats> = None;
    for &tile in CUDA_CORE_TILES {
        // Tiles sit directly on A's (m, k) plane.
        let cov = cover_count(mask, tile.m, tile.k);
        let n_tiles = n.div_ceil(tile.n);
        let total_passes = cov.nonzero_tiles * n_tiles;
        let out_tiles = mask.rows().div_ceil(tile.m) * n_tiles;
        let latency =
            cost.pass_based_latency(total_passes, out_tiles, tile, elem, tensor_core, 1.0);
        let executed = 2.0 * (cov.covered_elems * n) as f64;
        let stats = KernelStats {
            flops_useful: 2.0 * (nnz * n) as f64,
            flops_executed: executed,
            bytes_read: (cov.covered_elems * elem) as f64
                + (cov.nonzero_tiles * tile.k * tile.n * elem) as f64,
            bytes_written: (mask.rows() * n * elem) as f64,
            tiles_executed: total_passes,
            latency_s: latency,
        };
        if best.is_none_or(|b| stats.latency_s < b.latency_s) {
            best = Some(stats);
        }
    }
    best.expect("tile list is non-empty")
}

/// Mode 2: specialised fine-grained traversal.
fn fine_grained_cost(cost: &CostModel, mask: &Mask, n: usize, dtype: DType) -> KernelStats {
    let elem = dtype.size_bytes();
    let nnz = mask.nnz();
    let flops = 2.0 * (nnz * n) as f64;
    let peak = cost.device().flops_per_sm(false) * cost.device().num_sms as f64;
    let compute = flops / (peak * SPARTA_FINE_EFFICIENCY);
    let traffic =
        (nnz * elem) as f64 + (nnz * n * elem) as f64 / 16.0 + (mask.rows() * n * elem) as f64;
    let memory = traffic / cost.device().bw_total();
    KernelStats {
        flops_useful: flops,
        flops_executed: flops,
        bytes_read: traffic,
        bytes_written: (mask.rows() * n * elem) as f64,
        tiles_executed: 0,
        latency_s: compute.max(memory) + cost.device().kernel_launch_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_gpusim::DeviceSpec;
    use pit_sparse::generate;

    fn cost() -> CostModel {
        CostModel::new(DeviceSpec::v100_32gb())
    }

    #[test]
    fn aligned_mode_wins_on_block_granularity() {
        // 32x64 granularity aligns perfectly with a 32x64 tile: the aligned
        // mode should have (near-)zero waste and beat the fine-grained mode.
        let cost = cost();
        let mask = generate::granular_random(1024, 1024, 32, 64, 0.9, 4);
        let stats = spmm_cost_only(&cost, &mask, 1024, DType::F32);
        assert!(
            stats.wasted_fraction() < 0.05,
            "waste {}",
            stats.wasted_fraction()
        );
    }

    #[test]
    fn fine_mode_wins_on_fine_granularity_at_high_sparsity() {
        // At 32x1 granularity and 99% sparsity every coarse tile would be
        // nearly all waste, so the specialised fine-grained path is chosen
        // (zero coverage waste).
        let cost = cost();
        let mask = generate::granular_random(1024, 1024, 32, 1, 0.99, 5);
        let stats = spmm_cost_only(&cost, &mask, 1024, DType::F32);
        assert!(stats.wasted_fraction() < 0.3);
    }

    #[test]
    fn compile_cost_is_prohibitive() {
        // §2.2: 400-600 s — dwarfs any per-batch latency.
        assert!(compile_cost() >= 400.0 && compile_cost() <= 600.0);
    }
}
