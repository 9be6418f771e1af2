//! Tensor-Core (`wmma`) tile kernels.
//!
//! Hardware MMA units only accept fixed fragment shapes — in half precision
//! `[16,16]×[16,16]`, `[32,8]×[8,16]` and `[8,32]×[32,16]` (§5.3) — which
//! makes them "unsuitable for a 32×1 sparsity granularity" until PIT's
//! transformation regroups micro-tiles into full fragments (Figure 17).
//! The Tensor-Core tiles a kernel composes from those fragments are
//! [`WMMA_TILES`].

use crate::dense;
use crate::tiles::WMMA_TILES;
use pit_gpusim::cost::TileDims;
use pit_gpusim::{CostModel, KernelStats};
use pit_tensor::DType;

/// Analytic-only Tensor-Core GEMM cost.
pub fn gemm_tc_cost_only(
    cost: &CostModel,
    m: usize,
    k: usize,
    n: usize,
    tile: TileDims,
) -> KernelStats {
    dense::matmul_cost_only(cost, m, k, n, tile, DType::F16)
}

/// The default composed Tensor-Core tile used when callers do not search.
pub fn default_tile() -> TileDims {
    WMMA_TILES[WMMA_TILES.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_composability() {
        // The half-precision fragments of §5.3.
        let fragments = [
            TileDims::new(16, 16, 16),
            TileDims::new(32, 8, 16),
            TileDims::new(8, 32, 16),
        ];
        let composable = |tile: TileDims| {
            fragments.iter().any(|f| {
                tile.m.is_multiple_of(f.m)
                    && tile.k.is_multiple_of(f.k)
                    && tile.n.is_multiple_of(f.n)
            })
        };
        assert!(WMMA_TILES.iter().all(|&t| composable(t)));
        assert!(composable(default_tile()));
        // A 32x1 tile cannot be assembled from any fragment — the §5.3
        // constraint PIT loosens.
        assert!(!composable(TileDims::new(32, 1, 16)));
    }
}
