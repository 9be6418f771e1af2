//! The baselines' sparse formats (CSR and BCSR) and their conversion costs.
//!
//! PIT itself never converts tensors into these formats — that is the point
//! of the paper (§3.3: index construction *without changing the storage
//! format*). The formats here exist for the baselines: cuSPARSE and Sputnik
//! consume CSR, Triton/OpenAI block-sparse consumes a BCSR-style block
//! layout. Each format carries a *real* conversion implementation (used for
//! numeric correctness) and a modelled GPU conversion cost (used for the
//! conversion-overhead experiments, Figures 3b, 18 and 19).

use pit_gpusim::CostModel;
use pit_tensor::Tensor;

use crate::mask::Mask;

/// Compressed Sparse Row.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row pointers, length `rows + 1`.
    pub indptr: Vec<usize>,
    /// Column indices of non-zeros, ordered within each row.
    pub indices: Vec<usize>,
    /// Non-zero values, parallel to `indices`.
    pub values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix from the non-zero elements of a dense tensor.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not rank 2.
    pub fn from_dense(t: &Tensor) -> Self {
        assert_eq!(t.rank(), 2, "CSR requires a matrix");
        let (rows, cols) = (t.shape().dim(0), t.shape().dim(1));
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for r in 0..rows {
            for c in 0..cols {
                let v = t.data()[r * cols + c];
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Csr {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Expands back to a dense tensor.
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros([self.rows, self.cols]);
        for r in 0..self.rows {
            for i in self.indptr[r]..self.indptr[r + 1] {
                out.data_mut()[r * self.cols + self.indices[i]] = self.values[i];
            }
        }
        out
    }
}

/// Block Compressed Sparse Row with `block_h × block_w` dense blocks — the
/// layout consumed by OpenAI/Triton block-sparse kernels (32×32 blocks).
#[derive(Debug, Clone, PartialEq)]
pub struct Bcsr {
    /// Number of rows of the original matrix.
    pub rows: usize,
    /// Number of columns of the original matrix.
    pub cols: usize,
    /// Block height.
    pub block_h: usize,
    /// Block width.
    pub block_w: usize,
    /// Block-row pointers, length `ceil(rows/block_h) + 1`.
    pub indptr: Vec<usize>,
    /// Block-column indices.
    pub indices: Vec<usize>,
    /// Dense block payloads (`block_h * block_w` each, zero-padded at
    /// ragged edges), concatenated in `indices` order.
    pub blocks: Vec<f32>,
}

impl Bcsr {
    /// Builds a BCSR matrix from a dense tensor, storing every block that
    /// contains at least one non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not rank 2 or a block dim is zero.
    pub fn from_dense(t: &Tensor, block_h: usize, block_w: usize) -> Self {
        assert_eq!(t.rank(), 2, "BCSR requires a matrix");
        assert!(block_h > 0 && block_w > 0, "block dims must be positive");
        let (rows, cols) = (t.shape().dim(0), t.shape().dim(1));
        let mask = Mask::from_tensor(t);
        let grid_r = rows.div_ceil(block_h);
        let grid_c = cols.div_ceil(block_w);
        let mut indptr = Vec::with_capacity(grid_r + 1);
        let mut indices = Vec::new();
        let mut blocks = Vec::new();
        indptr.push(0);
        for br in 0..grid_r {
            for bc in 0..grid_c {
                if mask.block_any(br * block_h, bc * block_w, block_h, block_w) {
                    indices.push(bc);
                    for dr in 0..block_h {
                        for dc in 0..block_w {
                            let r = br * block_h + dr;
                            let c = bc * block_w + dc;
                            let v = if r < rows && c < cols {
                                t.data()[r * cols + c]
                            } else {
                                0.0
                            };
                            blocks.push(v);
                        }
                    }
                }
            }
            indptr.push(indices.len());
        }
        Bcsr {
            rows,
            cols,
            block_h,
            block_w,
            indptr,
            indices,
            blocks,
        }
    }

    /// Number of stored blocks.
    pub fn num_blocks(&self) -> usize {
        self.indices.len()
    }

    /// Expands back to a dense tensor.
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::zeros([self.rows, self.cols]);
        let bsz = self.block_h * self.block_w;
        let grid_r = self.rows.div_ceil(self.block_h);
        let mut blk = 0usize;
        for br in 0..grid_r {
            for i in self.indptr[br]..self.indptr[br + 1] {
                let bc = self.indices[i];
                let payload = &self.blocks[blk * bsz..(blk + 1) * bsz];
                for dr in 0..self.block_h {
                    for dc in 0..self.block_w {
                        let r = br * self.block_h + dr;
                        let c = bc * self.block_w + dc;
                        if r < self.rows && c < self.cols {
                            out.data_mut()[r * self.cols + c] = payload[dr * self.block_w + dc];
                        }
                    }
                }
                blk += 1;
            }
        }
        out
    }
}

/// Modelled GPU-side conversion costs of the baseline libraries.
///
/// The structures modelled here follow the algorithms the baselines
/// actually run (see `DESIGN.md` §5); none of the constants are tuned to
/// reproduce specific paper numbers.
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

    fn sample() -> Tensor {
        let mut t = Tensor::zeros([5, 7]);
        t.set(&[0, 0], 1.0).unwrap();
        t.set(&[0, 6], 2.0).unwrap();
        t.set(&[3, 2], -3.0).unwrap();
        t.set(&[4, 6], 4.5).unwrap();
        t
    }

    #[test]
    fn csr_round_trip() {
        let t = sample();
        let csr = Csr::from_dense(&t);
        assert_eq!(csr.nnz(), 4);
        assert!(csr.to_dense().allclose(&t, 0.0));
    }

    #[test]
    fn bcsr_round_trip_with_ragged_edges() {
        let t = sample(); // 5x7 with 2x4 blocks exercises clipping.
        let b = Bcsr::from_dense(&t, 2, 4);
        assert!(b.to_dense().allclose(&t, 0.0));
    }

    #[test]
    fn bcsr_block_count_matches_cover() {
        let t = Tensor::random([32, 32], 3);
        let b = Bcsr::from_dense(&t, 8, 8);
        // Random dense tensor: every block non-zero.
        assert_eq!(b.num_blocks(), 16);
    }

    #[test]
    fn csr_empty_matrix() {
        let t = Tensor::zeros([3, 3]);
        let csr = Csr::from_dense(&t);
        assert_eq!(csr.nnz(), 0);
        assert!(csr.to_dense().allclose(&t, 0.0));
    }

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
