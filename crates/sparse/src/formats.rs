//! The modelled cost of converting a dense tensor into the sparse formats
//! the baselines read.
//!
//! PIT itself never converts tensors into another format — that is the
//! point of the paper (§3.3: index construction *without changing the
//! storage format*). The baselines do: cuSPARSE and Sputnik consume CSR,
//! Triton/OpenAI block-sparse consumes a BCSR-style block layout, and
//! SparTA compiles a kernel per pattern. [`convert_cost`] prices each of
//! those conversions on the modelled GPU for the conversion-overhead
//! experiments (Figures 3b, 18 and 19).

use pit_gpusim::CostModel;

/// Modelled GPU-side conversion costs of the baseline libraries.
///
/// Each function prices the steps its baseline's conversion actually
/// runs, as its doc comment lists them; none of the constants are tuned
/// to reproduce specific paper numbers.
pub mod convert_cost {
    use super::*;

    /// Host-side per-block processing cost of Triton's block-sparse layout
    /// builder (Python/driver work per non-zero block).
    pub const TRITON_HOST_PER_BLOCK_S: f64 = 50.0e-9;

    /// Fixed host-side cost of rebuilding Triton block-sparse kernel
    /// metadata when the layout changes (driver re-specialisation; the
    /// dominant term the paper observes for Triton index construction).
    pub const TRITON_LAYOUT_FIXED_S: f64 = 0.8e-3;

    /// Ahead-of-time kernel specialisation time of SparTA-style compilers
    /// (paper §2.2 reports 400–600 s; we use the midpoint).
    pub const SPARTA_COMPILE_S: f64 = 500.0;

    /// Dense→CSR via the `nonzero` + sort path used by framework sparse
    /// tensors: two selection scans over the dense data, materialising
    /// `nnz` int64 coordinate pairs, a device radix sort of those pairs,
    /// a row-pointer build pass and a value gather, with two host
    /// synchronisations (one to learn `nnz`, one to return).
    pub fn csr_via_nonzero_sort(
        cost: &CostModel,
        rows: usize,
        cols: usize,
        nnz: usize,
        elem_bytes: usize,
    ) -> f64 {
        let dense_bytes = (rows * cols * elem_bytes) as f64;
        let select = 2.0 * cost.scan_pass(dense_bytes);
        let write_coords = (nnz * 16) as f64 / cost.device().bw_total();
        let sort = cost.device_sort(nnz, 16);
        let build_ptr = cost.scan_pass((nnz * 8) as f64);
        let gather_vals = (nnz * (8 + elem_bytes)) as f64 / cost.device().bw_total();
        select + write_coords + sort + build_ptr + gather_vals + 2.0 * cost.device().host_sync_s
    }

    /// Triton/OpenAI block-sparse layout construction: one mask-reduction
    /// scan on device, device→host copy of the block mask, per-block host
    /// processing plus the fixed re-specialisation cost, and the layout
    /// upload back to the device.
    pub fn triton_layout(
        cost: &CostModel,
        rows: usize,
        cols: usize,
        block_h: usize,
        block_w: usize,
        nnz_blocks: usize,
        elem_bytes: usize,
    ) -> f64 {
        let dense_bytes = (rows * cols * elem_bytes) as f64;
        let grid = rows.div_ceil(block_h) * cols.div_ceil(block_w);
        let reduce = cost.scan_pass(dense_bytes);
        let d2h = cost.pcie_copy(grid as f64);
        let host = nnz_blocks as f64 * TRITON_HOST_PER_BLOCK_S + TRITON_LAYOUT_FIXED_S;
        let h2d = cost.pcie_copy((nnz_blocks * 8) as f64);
        reduce + d2h + host + h2d + cost.device().host_sync_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_gpusim::DeviceSpec;

    #[test]
    fn conversion_costs_positive_and_ordered() {
        let cost = CostModel::new(DeviceSpec::v100_32gb());
        // Index construction on a 4096x4096 fp32 tensor at 50% density.
        let nnz = 4096 * 4096 / 2;
        let csr = convert_cost::csr_via_nonzero_sort(&cost, 4096, 4096, nnz, 4);
        let triton = convert_cost::triton_layout(&cost, 4096, 4096, 32, 32, 128 * 128 / 2, 4);
        assert!(csr > 0.0 && triton > 0.0);
        // Framework CSR conversion is dominated by the sort of nnz pairs
        // and lands near a millisecond at this size on V100.
        assert!(csr > 0.5e-3 && csr < 5.0e-3, "csr {csr}");
        // Triton's layout rebuild is dominated by its fixed host cost.
        assert!(triton > convert_cost::TRITON_LAYOUT_FIXED_S);
    }
}
