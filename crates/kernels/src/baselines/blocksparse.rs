//! OpenAI/Triton-style block-sparse kernels (fixed square blocks).
//!
//! These kernels only support coarse block granularity (32×32 in Triton,
//! 16×16 at best), so finer sparsity must be *padded up* to whole blocks —
//! the coverage waste PIT's micro-tiles eliminate (§2.2, §6). The module
//! prices the DSD (`sparse × dense → dense`) kernel from a count of
//! non-zero blocks ([`dsd_cost_only`]) and the layout rebuild a changed
//! pattern costs ([`layout_cost`]); it computes no product.

use pit_gpusim::cost::TileDims;
use pit_gpusim::{CostModel, KernelStats};
use pit_sparse::formats::convert_cost;
use pit_tensor::DType;

/// Analytic-only DSD cost: `nnz_blocks` blocks, each swept across the
/// `n`-dimension in `block_w`-deep k-passes.
#[allow(clippy::too_many_arguments)]
pub fn dsd_cost_only(
    cost: &CostModel,
    nnz_blocks: usize,
    block_h: usize,
    block_w: usize,
    m: usize,
    n: usize,
    nnz: usize,
    dtype: DType,
) -> KernelStats {
    let tensor_core = dtype.tensor_core_eligible();
    let elem = dtype.size_bytes();
    let tile = TileDims::new(block_h, block_w, block_h.max(block_w));
    let n_tiles = n.div_ceil(tile.n);
    let total_passes = nnz_blocks * n_tiles;
    let out_tiles = m.div_ceil(block_h) * n_tiles;
    let latency = cost.pass_based_latency(total_passes, out_tiles, tile, elem, tensor_core, 1.0);
    let executed = 2.0 * (nnz_blocks * block_h * block_w * n) as f64;
    KernelStats {
        flops_useful: 2.0 * nnz as f64 * n as f64,
        flops_executed: executed,
        bytes_read: (nnz_blocks * block_h * block_w * elem) as f64
            + (nnz_blocks * block_w * elem) as f64 * n as f64 / block_h as f64,
        bytes_written: (m * n * elem) as f64,
        tiles_executed: total_passes,
        latency_s: latency,
    }
}

/// Layout (index) construction cost — Triton's block-sparse kernels
/// rebuild host-side layout metadata whenever the pattern changes.
pub fn layout_cost(
    cost: &CostModel,
    rows: usize,
    cols: usize,
    block: usize,
    nnz_blocks: usize,
    dtype: DType,
) -> f64 {
    convert_cost::triton_layout(
        cost,
        rows,
        cols,
        block,
        block,
        nnz_blocks,
        dtype.size_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_gpusim::DeviceSpec;
    use pit_sparse::{cover_count, generate};

    fn cost() -> CostModel {
        CostModel::new(DeviceSpec::v100_32gb())
    }

    #[test]
    fn fine_granularity_wastes_computation() {
        // 1x32-granular sparsity padded to 32x32 blocks executes ~32x the
        // useful FLOPs (the waste PIT eliminates).
        let cost = cost();
        let mask = generate::granular_random(256, 256, 1, 32, 0.9, 4);
        let blocks = cover_count(&mask, 32, 32).nonzero_tiles;
        let stats = dsd_cost_only(&cost, blocks, 32, 32, 256, 64, mask.nnz(), DType::F32);
        assert!(stats.wasted_fraction() > 0.5);
    }

    #[test]
    fn dsd_latency_scales_with_blocks() {
        let cost = cost();
        let lo = dsd_cost_only(&cost, 100, 32, 32, 4096, 4096, 100 * 1024, DType::F32);
        let hi = dsd_cost_only(&cost, 1000, 32, 32, 4096, 4096, 1000 * 1024, DType::F32);
        assert!(hi.latency_s > 3.0 * lo.latency_s);
    }

    #[test]
    fn layout_cost_dominated_by_fixed_host_work() {
        let cost = cost();
        let c = layout_cost(&cost, 4096, 4096, 32, 5000, DType::F32);
        assert!(c > convert_cost::TRITON_LAYOUT_FIXED_S);
    }
}
