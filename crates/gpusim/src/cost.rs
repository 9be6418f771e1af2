//! The analytical cost model.
//!
//! Latency of a tiled kernel is modelled as
//!
//! ```text
//! latency  = (passes * pass + out_tiles * out_tile) / min(num_sms, out_tiles)
//!            + kernel_launch
//! pass     = max(compute_pass, memory_pass)
//! out_tile = writeback + sched
//! ```
//!
//! ([`CostModel::tile_latency`], the one place this sum is written), where
//! `passes` counts every tile's k-passes and `compute_pass` is a roofline
//! over the per-SM FLOP rate degraded by a *tile-shape efficiency* (small
//! tiles under-utilise the SM: fewer accumulators in flight, shallower MAC
//! pipelines). This efficiency is what creates the paper's central dilemma
//! (Figure 3a): small tiles waste less coverage on sparse data but execute
//! far less efficiently.
//!
//! ## Structural constants
//!
//! The constants below are documented choices, fixed once for the whole
//! reproduction (never tuned per experiment):
//!
//! - [`AREA_SATURATION`]: output-tile area (in elements) at which an SM
//!   reaches half of peak. Chosen so that a 32×32 fp32 tile sits at ~57% of
//!   peak and an 8×8 tile at ~8%, consistent with the relative throughputs
//!   of CUDA-core GEMMs across tile sizes reported by Roller (OSDI '22).
//! - [`K_PIPELINE`]: reduction depth at which the MAC pipeline is half full.
//! - [`TILE_SCHED_S`]: fixed per-thread-block scheduling cost.
//! - [`ATOMIC_SAME_ADDR_S`]: throughput-reciprocal of same-address global
//!   atomics (L2 fire-and-forget), used by the online detector model. Real
//!   detectors aggregate per thread block ([`BLOCK_AGGREGATION`] items per
//!   atomic), which the model reflects.
//! - [`GATHER_INEFFICIENCY`]: relative slowdown of gathering sparsely
//!   located micro-tiles versus streaming a contiguous tile. Close to 1
//!   because micro-tiles are sized to whole memory transactions (paper
//!   §3.1) — this is PIT's "piggyback" claim, and the ablation in
//!   Figure 16/17 (PIT ≈ dense tile latency) holds only because the
//!   hardware serves transaction-aligned gathers at near-streaming rates.

use crate::device::DeviceSpec;
use serde::Serialize;

/// Output-tile area (elements) at which SM utilisation reaches 50%.
pub const AREA_SATURATION: f64 = 768.0;

/// Reduction-axis tile depth at which the MAC pipeline reaches 50%.
pub const K_PIPELINE: f64 = 8.0;

/// Fixed scheduling cost per thread block (seconds).
pub const TILE_SCHED_S: f64 = 0.4e-6;

/// Reciprocal throughput of same-address global atomics (seconds per op).
pub const ATOMIC_SAME_ADDR_S: f64 = 4.0e-9;

/// Items aggregated per atomic by a block-aggregated index builder.
pub const BLOCK_AGGREGATION: usize = 256;

/// Relative cost of transaction-aligned gather vs. contiguous streaming.
pub const GATHER_INEFFICIENCY: f64 = 1.05;

/// Tensor-Core tiles saturate at smaller output areas (per-warp MMA units).
pub const TC_AREA_SATURATION: f64 = 192.0;

/// Shape of a dense computation tile `[m, k] × [k, n]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct TileDims {
    /// Rows of the output tile.
    pub m: usize,
    /// Reduction depth per pass.
    pub k: usize,
    /// Columns of the output tile.
    pub n: usize,
}

impl TileDims {
    /// Convenience constructor.
    pub const fn new(m: usize, k: usize, n: usize) -> Self {
        TileDims { m, k, n }
    }

    /// Output area in elements.
    pub const fn area(&self) -> usize {
        self.m * self.n
    }

    /// MACs per k-pass (each MAC counts as 2 FLOPs).
    pub const fn macs_per_pass(&self) -> usize {
        self.m * self.n * self.k
    }

    /// Output tiles covering an `[m, n]` output.
    #[inline]
    pub const fn tiles_over(&self, m: usize, n: usize) -> usize {
        m.div_ceil(self.m) * n.div_ceil(self.n)
    }

    /// k-passes one tile makes over a reduction of depth `k_total`: at
    /// least one, so an empty reduction still writes its tile back.
    #[inline]
    pub fn passes_over(&self, k_total: usize) -> usize {
        k_total.div_ceil(self.k).max(1)
    }
}

impl std::fmt::Display for TileDims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{},{}]x[{},{}]", self.m, self.k, self.k, self.n)
    }
}

/// Analytical cost model bound to one device.
#[derive(Debug, Clone)]
pub struct CostModel {
    device: DeviceSpec,
}

impl CostModel {
    /// Creates a cost model for the given device.
    pub fn new(device: DeviceSpec) -> Self {
        CostModel { device }
    }

    /// The device this model is bound to.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Tile-shape efficiency in `(0, 1]`: fraction of an SM's peak FLOP rate
    /// a GEMM with this tile shape sustains.
    pub fn tile_efficiency(&self, tile: TileDims, tensor_core: bool) -> f64 {
        let area = tile.area() as f64;
        let sat = if tensor_core {
            TC_AREA_SATURATION
        } else {
            AREA_SATURATION
        };
        let eff_area = area / (area + sat);
        let k = tile.k as f64;
        let eff_k = k / (k + K_PIPELINE);
        eff_area * eff_k
    }

    /// Cost of one k-pass of one tile on one SM (seconds).
    pub fn tile_pass_cost(&self, tile: TileDims, elem_bytes: usize, tensor_core: bool) -> f64 {
        let eff = self.tile_efficiency(tile, tensor_core);
        let flops = 2.0 * tile.macs_per_pass() as f64;
        let compute = flops / (self.device.flops_per_sm(tensor_core) * eff);
        let bytes = ((tile.m * tile.k + tile.k * tile.n) * elem_bytes) as f64;
        let memory = bytes / self.device.bw_per_sm();
        compute.max(memory)
    }

    /// Cost of one output tile beyond its k-passes (seconds): the
    /// write-back of the tile's outputs plus [`TILE_SCHED_S`].
    pub fn out_tile_cost(&self, tile: TileDims, elem_bytes: usize) -> f64 {
        (tile.area() * elem_bytes) as f64 / self.device.bw_per_sm() + TILE_SCHED_S
    }

    /// The tiled-kernel latency formula (seconds): `total_passes` k-passes
    /// of `pass_s` each plus `out_tiles` output tiles of `out_tile_s` each,
    /// spread over the SMs the kernel fills, plus one launch. An empty
    /// kernel costs one launch.
    ///
    /// The tiled kernels are priced through here. Their per-tile constants
    /// come from [`CostModel::tile_pass_cost`] and
    /// [`CostModel::out_tile_cost`], or from a profiled tile table that
    /// stored them once, so both price a tile bit for bit alike.
    #[inline]
    pub fn tile_latency(
        &self,
        total_passes: usize,
        out_tiles: usize,
        pass_s: f64,
        out_tile_s: f64,
    ) -> f64 {
        if total_passes == 0 && out_tiles == 0 {
            return self.device.kernel_launch_s;
        }
        // Parallelism is bounded by the number of thread blocks: a kernel
        // with fewer output tiles than SMs cannot use every SM.
        let effective_sms = self.device.num_sms.min(out_tiles.max(1)) as f64;
        (total_passes as f64 * pass_s + out_tiles as f64 * out_tile_s) / effective_sms
            + self.device.kernel_launch_s
    }

    /// Latency of an *irregular* tiled kernel described by its total
    /// k-pass count and output-tile count (seconds). Used by kernels whose
    /// per-tile reduction depth varies (block-sparse rows, PIT k-axis
    /// merging, fused MoE expert GEMMs). `gather_factor` scales the pass
    /// cost for `SRead`-style transaction-aligned gathers.
    pub fn pass_based_latency(
        &self,
        total_passes: usize,
        out_tiles: usize,
        tile: TileDims,
        elem_bytes: usize,
        tensor_core: bool,
        gather_factor: f64,
    ) -> f64 {
        self.tile_latency(
            total_passes,
            out_tiles,
            self.tile_pass_cost(tile, elem_bytes, tensor_core) * gather_factor,
            self.out_tile_cost(tile, elem_bytes),
        )
    }

    /// Latency of a kernel that executes `num_tiles` thread blocks of the
    /// given tile, each reducing over `k_total` (seconds).
    pub fn tiled_gemm_latency(
        &self,
        num_tiles: usize,
        tile: TileDims,
        k_total: usize,
        elem_bytes: usize,
        tensor_core: bool,
    ) -> f64 {
        self.tile_latency(
            num_tiles * tile.passes_over(k_total),
            num_tiles,
            self.tile_pass_cost(tile, elem_bytes, tensor_core),
            self.out_tile_cost(tile, elem_bytes),
        )
    }

    /// Latency of a dense `[m,k]×[k,n]` GEMM with the given tile (seconds).
    pub fn dense_gemm_latency(
        &self,
        m: usize,
        k: usize,
        n: usize,
        tile: TileDims,
        elem_bytes: usize,
        tensor_core: bool,
    ) -> f64 {
        self.tiled_gemm_latency(tile.tiles_over(m, n), tile, k, elem_bytes, tensor_core)
    }

    /// Latency of one full pass over `bytes` of global memory (seconds),
    /// e.g. a mask scan or an elementwise map.
    pub fn scan_pass(&self, bytes: f64) -> f64 {
        bytes / self.device.bw_total() + self.device.kernel_launch_s
    }

    /// Latency of an elementwise kernel touching `read_bytes` and writing
    /// `write_bytes` (memory bound).
    pub fn elementwise(&self, read_bytes: f64, write_bytes: f64) -> f64 {
        (read_bytes + write_bytes) / self.device.bw_total() + self.device.kernel_launch_s
    }

    /// Latency of copying `bytes` across PCIe in either direction (seconds).
    pub fn pcie_copy(&self, bytes: f64) -> f64 {
        bytes / (self.device.pcie_gbps * 1.0e9) + self.device.host_sync_s
    }

    /// Latency of appending `n_items` entries to a global index array using
    /// block-aggregated same-address atomics plus the index writes.
    ///
    /// This is the GPU-side cost of PIT's unordered online index
    /// construction (paper §3.3): one atomic per [`BLOCK_AGGREGATION`]
    /// detected micro-tiles, plus streaming out 8-byte offsets.
    pub fn index_append(&self, n_items: usize) -> f64 {
        let atomics = n_items.div_ceil(BLOCK_AGGREGATION) as f64 * ATOMIC_SAME_ADDR_S;
        let writes = (n_items * 8) as f64 / self.device.bw_total();
        atomics + writes
    }

    /// Latency of a device-side sort of `n_items` records of `rec_bytes`
    /// each (radix sort: ~4 full passes over the keys), as performed by
    /// ordered-index converters (CSR construction via `nonzero` + sort).
    pub fn device_sort(&self, n_items: usize, rec_bytes: usize) -> f64 {
        4.0 * (n_items * rec_bytes) as f64 / self.device.bw_total() + self.device.kernel_launch_s
    }

    /// Multiplicative overhead applied to tile loads performed through
    /// `SRead`-style transaction-aligned gathers.
    pub fn gather_factor(&self) -> f64 {
        GATHER_INEFFICIENCY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100() -> CostModel {
        CostModel::new(DeviceSpec::a100_80gb())
    }

    #[test]
    fn efficiency_monotone_in_area() {
        let m = a100();
        let e8 = m.tile_efficiency(TileDims::new(8, 8, 8), false);
        let e16 = m.tile_efficiency(TileDims::new(16, 16, 16), false);
        let e32 = m.tile_efficiency(TileDims::new(32, 32, 32), false);
        let e64 = m.tile_efficiency(TileDims::new(64, 32, 64), false);
        assert!(e8 < e16 && e16 < e32 && e32 < e64);
        assert!(e8 > 0.0 && e64 <= 1.0);
    }

    #[test]
    fn dense_4096_gemm_in_plausible_range() {
        // Dense 4096^3 fp32 on A100 with a 128x128x32 tile: peak-FLOP bound
        // is ~7 ms; a realistic kernel lands between 7 and 25 ms.
        let m = a100();
        let lat = m.dense_gemm_latency(4096, 4096, 4096, TileDims::new(128, 32, 128), 4, false);
        assert!(lat > 7.0e-3 && lat < 25.0e-3, "latency {lat}");
    }

    #[test]
    fn larger_tiles_win_for_dense() {
        // Figure 3a's premise: for a dense (or low-sparsity) GEMM, 32x32
        // tiles beat 8x8 tiles by a large factor.
        let m = a100();
        let l8 = m.dense_gemm_latency(4096, 4096, 4096, TileDims::new(8, 8, 8), 4, false);
        let l32 = m.dense_gemm_latency(4096, 4096, 4096, TileDims::new(32, 32, 32), 4, false);
        assert!(l8 > 3.0 * l32, "8x8 {l8} vs 32x32 {l32}");
    }

    #[test]
    fn tensor_core_beats_cuda_core_for_large_tiles() {
        let m = a100();
        let tc = m.dense_gemm_latency(4096, 4096, 4096, TileDims::new(64, 32, 64), 2, true);
        let cc = m.dense_gemm_latency(4096, 4096, 4096, TileDims::new(64, 32, 64), 4, false);
        assert!(tc < cc);
    }

    #[test]
    fn empty_kernel_costs_one_launch() {
        let m = a100();
        let lat = m.tiled_gemm_latency(0, TileDims::new(32, 32, 32), 4096, 4, false);
        assert_eq!(lat, m.device().kernel_launch_s);
    }

    #[test]
    fn index_append_scales_linearly() {
        let m = a100();
        let one = m.index_append(1_000_000);
        let two = m.index_append(2_000_000);
        assert!(two > 1.8 * one && two < 2.2 * one);
    }

    #[test]
    fn scan_of_64mb_on_a100_is_tens_of_microseconds() {
        let m = a100();
        let lat = m.scan_pass(64.0 * 1024.0 * 1024.0 * 4.0 / 4.0);
        assert!(lat > 20.0e-6 && lat < 60.0e-6, "{lat}");
    }

    #[test]
    fn memory_bound_tiles_hit_bandwidth_roof() {
        // A tile with tiny k is memory bound: pass cost equals bytes/bw.
        let m = a100();
        let tile = TileDims::new(256, 1, 256);
        let pass = m.tile_pass_cost(tile, 4, false);
        let bytes = ((256 + 256) * 4) as f64;
        assert!(pass >= bytes / m.device().bw_per_sm());
    }
}
