//! The dense computation-tile database.
//!
//! The paper's implementation generates ~1,500 sparse kernels from over 500
//! dense computation kernels and stores their profiled performance in a
//! look-up table used by the online micro-tile selector (§4). This module is
//! that database: a fixed set of dense tile shapes per device, each with
//! the two constants the cost model charges per tile, "profiled" once from
//! the analytical cost model (playing the role of the paper's offline
//! profiling run, which is model- and sparsity-agnostic by design, §3.2):
//!
//! - the cost of one k-pass ([`CostModel::tile_pass_cost`]), and
//! - the cost of one output tile beyond its passes, write-back plus
//!   scheduling ([`CostModel::out_tile_cost`]).
//!
//! Selection reads these constants instead of deriving them again: a dense
//! GEMM's latency with a tile is the cost model's one formula,
//! [`CostModel::tile_latency`], over the tile's stored constants, and
//! equals [`CostModel::dense_gemm_latency`] bit for bit.

use pit_gpusim::cost::TileDims;
use pit_gpusim::CostModel;

/// One profiled dense computation tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfiledTile {
    /// Tile dimensions `[m,k]×[k,n]`.
    pub dims: TileDims,
    /// Whether the tile runs on the Tensor-Core path (fp16).
    pub tensor_core: bool,
    /// Cost of one k-pass of one tile on one SM (seconds): exactly
    /// [`CostModel::tile_pass_cost`] at the path's element size.
    pub pass_cost_s: f64,
    /// Cost of one output tile beyond its k-passes (seconds): exactly
    /// [`CostModel::out_tile_cost`], the write-back of the tile's outputs
    /// plus thread-block scheduling, at the path's element size.
    pub out_tile_cost_s: f64,
}

impl ProfiledTile {
    /// Modelled latency of a dense `[m,k]×[k,n]` GEMM run with this tile
    /// (seconds), priced from the stored constants. Bit-identical to
    /// [`CostModel::dense_gemm_latency`] with this tile at its path's
    /// element size.
    pub fn dense_gemm_latency(&self, cost: &CostModel, m: usize, k: usize, n: usize) -> f64 {
        let tiles = self.dims.tiles_over(m, n);
        cost.tile_latency(
            tiles * self.dims.passes_over(k),
            tiles,
            self.pass_cost_s,
            self.out_tile_cost_s,
        )
    }
}

/// The per-device tile database.
#[derive(Debug, Clone)]
pub struct TileDb {
    /// The CUDA-core tiles, then the Tensor-Core tiles.
    tiles: Vec<ProfiledTile>,
    /// How many of `tiles` are CUDA-core tiles.
    cuda_core: usize,
}

/// Dense CUDA-core tile shapes shipped in the database. The set spans the
/// shapes the paper's figures exercise (8×8 … 32×32 in Figure 3a, the
/// `[16,32]×[32,128]` / `[8,32]×[32,128]` / `[32,64]×[64,32]` kernels of
/// Table 3) plus the large tiles a cuBLAS-class dense GEMM would pick.
pub const CUDA_CORE_TILES: &[TileDims] = &[
    TileDims::new(8, 8, 8),
    TileDims::new(16, 16, 16),
    TileDims::new(32, 32, 32),
    TileDims::new(8, 32, 128),
    TileDims::new(16, 32, 128),
    TileDims::new(32, 64, 32),
    TileDims::new(32, 32, 64),
    TileDims::new(64, 32, 64),
    TileDims::new(64, 64, 64),
    TileDims::new(128, 32, 64),
    TileDims::new(128, 32, 128),
];

/// Tensor-Core *tiles* built by a kernel from wmma fragments (a thread
/// block composes several fragments; shapes follow common wmma GEMMs).
pub const WMMA_TILES: &[TileDims] = &[
    TileDims::new(16, 16, 16),
    TileDims::new(32, 16, 32),
    TileDims::new(32, 64, 32),
    TileDims::new(64, 16, 64),
    TileDims::new(64, 32, 64),
    TileDims::new(128, 32, 64),
];

impl TileDb {
    /// Builds ("profiles") the database for one device. CUDA-core tiles
    /// are profiled at 4-byte (fp32) elements, Tensor-Core tiles at
    /// 2-byte (fp16) ones.
    pub fn profile(cost: &CostModel) -> Self {
        let entry = |dims: TileDims, tensor_core: bool| {
            let elem = if tensor_core { 2 } else { 4 };
            ProfiledTile {
                dims,
                tensor_core,
                pass_cost_s: cost.tile_pass_cost(dims, elem, tensor_core),
                out_tile_cost_s: cost.out_tile_cost(dims, elem),
            }
        };
        let tiles: Vec<ProfiledTile> = CUDA_CORE_TILES
            .iter()
            .map(|&dims| entry(dims, false))
            .chain(WMMA_TILES.iter().map(|&dims| entry(dims, true)))
            .collect();
        TileDb {
            tiles,
            cuda_core: CUDA_CORE_TILES.len(),
        }
    }

    /// The tiles of one execution path, in database order.
    fn path(&self, tensor_core: bool) -> &[ProfiledTile] {
        let (cuda_core, wmma) = self.tiles.split_at(self.cuda_core);
        if tensor_core {
            wmma
        } else {
            cuda_core
        }
    }

    /// All tiles for the given execution path.
    pub fn tiles(&self, tensor_core: bool) -> impl Iterator<Item = &ProfiledTile> {
        self.path(tensor_core).iter()
    }

    /// All tiles regardless of path.
    pub fn all(&self) -> &[ProfiledTile] {
        &self.tiles
    }

    /// The profiled tile with the given dims, if present.
    pub fn get(&self, dims: TileDims, tensor_core: bool) -> Option<&ProfiledTile> {
        self.tiles(tensor_core).find(|t| t.dims == dims)
    }

    /// The tile minimising full-GEMM latency for a dense `[m,k]×[k,n]`
    /// problem — what a cuBLAS-style heuristic would select.
    pub fn best_dense_tile(
        &self,
        cost: &CostModel,
        m: usize,
        k: usize,
        n: usize,
        tensor_core: bool,
    ) -> &ProfiledTile {
        self.best_dense_gemm(cost, m, k, n, tensor_core).0
    }

    /// [`TileDb::best_dense_tile`] together with the GEMM's latency on it
    /// (seconds). Each tile of the path is priced once, by
    /// [`ProfiledTile::dense_gemm_latency`]; of equally fast tiles the
    /// first in database order wins.
    pub fn best_dense_gemm(
        &self,
        cost: &CostModel,
        m: usize,
        k: usize,
        n: usize,
        tensor_core: bool,
    ) -> (&ProfiledTile, f64) {
        let (first, rest) = self
            .path(tensor_core)
            .split_first()
            .expect("tile database is never empty");
        let mut best = (first, first.dense_gemm_latency(cost, m, k, n));
        for tile in rest {
            let latency = tile.dense_gemm_latency(cost, m, k, n);
            if latency < best.1 {
                best = (tile, latency);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_gpusim::DeviceSpec;

    fn db() -> (TileDb, CostModel) {
        let cost = CostModel::new(DeviceSpec::a100_80gb());
        (TileDb::profile(&cost), cost)
    }

    #[test]
    fn database_contains_paper_tiles() {
        let (db, _) = db();
        assert!(db.get(TileDims::new(16, 32, 128), false).is_some());
        assert!(db.get(TileDims::new(8, 32, 128), false).is_some());
        assert!(db.get(TileDims::new(32, 64, 32), false).is_some());
    }

    #[test]
    fn pass_costs_are_positive_and_scale_with_area() {
        let (db, _) = db();
        let small = db.get(TileDims::new(8, 8, 8), false).unwrap();
        let big = db.get(TileDims::new(128, 32, 128), false).unwrap();
        assert!(small.pass_cost_s > 0.0);
        assert!(big.pass_cost_s > small.pass_cost_s);
        // ...but the big tile is cheaper *per element*.
        let per_elem_small = small.pass_cost_s / small.dims.macs_per_pass() as f64;
        let per_elem_big = big.pass_cost_s / big.dims.macs_per_pass() as f64;
        assert!(per_elem_big < per_elem_small);
    }

    #[test]
    fn best_dense_tile_prefers_large_tiles_for_large_gemm() {
        let (db, cost) = db();
        let best = db.best_dense_tile(&cost, 4096, 4096, 4096, false);
        assert!(best.dims.area() >= 64 * 64, "picked {:?}", best.dims);
    }

    #[test]
    fn best_dense_tile_adapts_to_skinny_gemm() {
        let (db, cost) = db();
        // A 32-row GEMM cannot fill 128-row tiles.
        let best = db.best_dense_tile(&cost, 32, 4096, 4096, false);
        assert!(best.dims.m <= 64, "picked {:?}", best.dims);
    }

    #[test]
    fn wmma_tiles_only_on_tensor_core_path() {
        let (db, _) = db();
        assert!(db.tiles(true).count() >= WMMA_TILES.len());
        assert!(db.tiles(false).all(|t| CUDA_CORE_TILES.contains(&t.dims)));
    }
}
