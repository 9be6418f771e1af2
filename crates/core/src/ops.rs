//! High-level PIT operator API.
//!
//! [`Pit`] bundles the pieces a user needs: the profiled tile database, the
//! JIT selection cache, the online detector and the sparse kernels, behind
//! operator-level entry points. This is the reproduction of the paper's
//! PyTorch integration surface ("less than 10 lines of code changed", §4):
//! swap a dense matmul for [`Pit::matmul_masked`] and the engine handles
//! detection, selection and execution.

use crate::detector::{detect_mask, MicroTileIndex};
use crate::jit::{JitCache, KernelKey};
use crate::kernels::{moe_dims, moe_gemm, sdd_m_axis, spmm_k_axis, spmm_m_axis, spmm_row_segments};
use crate::microtile::MatmulAxis;
use crate::selection::{select_kernel, SelectedKernel};
use pit_gpusim::cost::TileDims;
use pit_gpusim::{CostModel, DeviceSpec, KernelStats};
use pit_kernels::baselines::cublas;
use pit_kernels::dense::matmul_dims;
use pit_kernels::tiles::TileDb;
use pit_kernels::KernelOutput;
use pit_sparse::Mask;
use pit_tensor::{DType, Tensor, TensorError};

/// One executed PIT operator: result, detection overhead and the selection
/// that produced the kernel.
#[derive(Debug, Clone)]
pub struct PitExecution {
    /// Kernel result and execution statistics.
    pub output: KernelOutput,
    /// Online index-construction statistics ("PIT Convert" in Figure 19);
    /// zero when the kernel needed no index (dense fallback, row lists).
    pub detection: KernelStats,
    /// The Algorithm-1 selection used.
    pub selection: SelectedKernel,
}

/// The PIT engine: tile database + JIT cache bound to one device.
#[derive(Debug)]
pub struct Pit {
    cost: CostModel,
    db: TileDb,
    cache: JitCache,
    detect_threads: usize,
}

impl Pit {
    /// Creates an engine for a device, profiling the tile database once
    /// (the paper's lightweight offline profiling, §3.2).
    pub fn new(device: DeviceSpec) -> Self {
        let cost = CostModel::new(device);
        let db = TileDb::profile(&cost);
        Pit {
            cost,
            db,
            cache: JitCache::new(),
            detect_threads: 4,
        }
    }

    /// The engine's cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The profiled tile database.
    pub fn tile_db(&self) -> &TileDb {
        &self.db
    }

    /// The JIT selection cache (for inspecting hit rates).
    pub fn cache(&self) -> &JitCache {
        &self.cache
    }

    /// Sets the most host threads the online detector uses (at least 1).
    /// A scan never uses more than the host's available parallelism, and
    /// masks under 2^14 words are scanned on the calling thread (see
    /// [`detect_mask`]).
    pub fn with_detect_threads(mut self, threads: usize) -> Self {
        self.detect_threads = threads.max(1);
        self
    }

    /// Dense matmul through the library's best dense tile (the fallback
    /// path, also used as the dense baseline in experiments).
    pub fn matmul_dense(
        &self,
        a: &Tensor,
        b: &Tensor,
        dtype: DType,
    ) -> Result<KernelOutput, TensorError> {
        cublas::gemm(&self.cost, &self.db, a, b, dtype)
    }

    /// Sparse matmul `C = A·B` where `A`'s sparsity is described by `mask`
    /// (values of `A` at masked-out positions must be zero). Runs
    /// Algorithm-1 selection (cached by shape), online detection if the
    /// chosen rule needs an index, and the generated sparse kernel.
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `mask` has `A`'s shape.
    pub fn matmul_masked(
        &self,
        a: &Tensor,
        mask: &Mask,
        b: &Tensor,
        dtype: DType,
    ) -> Result<PitExecution, TensorError> {
        let (m, k, n) = matmul_dims(a, b)?;
        if (mask.rows(), mask.cols()) != (m, k) {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![m, k],
                rhs: vec![mask.rows(), mask.cols()],
            });
        }
        let key = KernelKey {
            op: "spmm",
            dims: [m, k, n],
            dtype,
        };
        let selection = self.cache.get_or_select(key, || {
            select_kernel(&self.cost, &self.db, std::slice::from_ref(mask), n, dtype)
        });
        match selection.rule {
            None => {
                let output = self.matmul_dense(a, b, dtype)?;
                Ok(PitExecution {
                    output,
                    detection: KernelStats::default(),
                    selection,
                })
            }
            Some(rule) => match rule.axis {
                MatmulAxis::M => {
                    // Row detection: the index is the non-zero row list;
                    // modelled as a (1, tile.k)-granular detection pass.
                    let index = detect_mask(&self.cost, mask, rule.micro, self.detect_threads);
                    let rows: Vec<u32> = index.nonzero_grid_rows();
                    let output = spmm_m_axis(&self.cost, a, b, &rows, rule.tile, dtype)?;
                    Ok(PitExecution {
                        output,
                        detection: index.stats,
                        selection,
                    })
                }
                MatmulAxis::K if rule.micro.h == 1 => {
                    // Row-segment kernel: (1, w) micro-tiles, per-row
                    // vectorised MACs over each row's detected segments.
                    let index = detect_mask(&self.cost, mask, rule.micro, self.detect_threads);
                    let output = spmm_row_segments(&self.cost, a, b, &index, mask.nnz(), dtype)?;
                    Ok(PitExecution {
                        output,
                        detection: index.stats,
                        selection,
                    })
                }
                MatmulAxis::K => {
                    let index = detect_mask(&self.cost, mask, rule.micro, self.detect_threads);
                    let output = spmm_k_axis(&self.cost, a, b, &index, rule.tile, dtype)?;
                    Ok(PitExecution {
                        output,
                        detection: index.stats,
                        selection,
                    })
                }
                MatmulAxis::N => unreachable!("A-sparse selection never picks N"),
            },
        }
    }

    /// Sparse matmul where the sparsity is *unknown* until this call: the
    /// mask is derived from `A`'s values (the dynamic-activation case).
    pub fn matmul_dyn_sparse(
        &self,
        a: &Tensor,
        b: &Tensor,
        dtype: DType,
    ) -> Result<PitExecution, TensorError> {
        matmul_dims(a, b)?;
        let mask = Mask::from_tensor(a);
        let mut exec = self.matmul_masked(a, &mask, b, dtype)?;
        // Detection scanned values, not mask bits: charge the value scan.
        if exec.detection.latency_s > 0.0 {
            let scan = self.cost.scan_pass(a.device_bytes() as f64);
            let bit_scan = self.cost.scan_pass((mask.numel() / 8) as f64);
            exec.detection.latency_s += scan - bit_scan;
            exec.detection.bytes_read = a.device_bytes() as f64;
        }
        Ok(exec)
    }

    /// Row-sparse matmul with an explicit non-zero row list (dynamic
    /// sequence length: the row list comes from the batch's lengths, no
    /// detection pass needed).
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for a row past `A`'s last.
    pub fn matmul_rows(
        &self,
        a: &Tensor,
        rows: &[u32],
        b: &Tensor,
        tile: Option<TileDims>,
        dtype: DType,
    ) -> Result<KernelOutput, TensorError> {
        let (_, k, n) = matmul_dims(a, b)?;
        let tile = tile.unwrap_or_else(|| {
            self.db
                .best_dense_tile(
                    &self.cost,
                    rows.len().max(1),
                    k,
                    n,
                    dtype.tensor_core_eligible(),
                )
                .dims
        });
        spmm_m_axis(&self.cost, a, b, rows, tile, dtype)
    }

    /// Output-sparse matmul `C = (A·B) ⊙ mask` (dynamic sparse attention
    /// scores).
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `mask` has the
    /// output's shape.
    pub fn sdd(
        &self,
        a: &Tensor,
        b: &Tensor,
        mask: &Mask,
        dtype: DType,
    ) -> Result<PitExecution, TensorError> {
        let (m, k, n) = matmul_dims(a, b)?;
        let tc = dtype.tensor_core_eligible();
        let tile = self
            .db
            .best_dense_tile(&self.cost, m, k, n.min(64), tc)
            .dims;
        // The output index is the mask itself (known, no value scan); the
        // per-strip row gathering inside the kernel is the detection.
        let scan = KernelStats {
            bytes_read: (mask.numel() / 8) as f64,
            latency_s: self.cost.scan_pass((mask.numel() / 8) as f64),
            ..Default::default()
        };
        let output = sdd_m_axis(&self.cost, a, b, mask, tile, dtype)?;
        let selection = SelectedKernel {
            rule: Some(crate::microtile::PitRule {
                axis: MatmulAxis::M,
                micro: crate::microtile::MicroTile::new(1, tile.n),
                tile,
                tensor_core: tc,
            }),
            predicted_cost_s: output.stats.latency_s,
            dense_cost_s: self
                .cost
                .dense_gemm_latency(m, k, n, tile, dtype.size_bytes(), tc),
            after_cover_sparsity: 0.0,
            // The mask-directed path scores no candidates: the rule is
            // fixed by the mask, so no search cost is modelled either.
            candidates: 0,
            modelled_search_s: 0.0,
            search_time: std::time::Duration::ZERO,
        };
        Ok(PitExecution {
            output,
            detection: scan,
            selection,
        })
    }

    /// Fused sparse MoE expert GEMM (one launch for all experts).
    ///
    /// Returns an error for a malformed call, as [`moe_gemm`] does.
    pub fn moe_gemm(
        &self,
        tokens: &Tensor,
        expert_weights: &[Tensor],
        expert_tokens: &[Vec<usize>],
        dtype: DType,
    ) -> Result<KernelOutput, TensorError> {
        let (_, h, f) = moe_dims(tokens, expert_weights, expert_tokens)?;
        let max_cnt = expert_tokens.iter().map(Vec::len).max().unwrap_or(0);
        let tile = self
            .db
            .best_dense_tile(
                &self.cost,
                max_cnt.max(1),
                h,
                f,
                dtype.tensor_core_eligible(),
            )
            .dims;
        moe_gemm(
            &self.cost,
            tokens,
            expert_weights,
            expert_tokens,
            tile,
            dtype,
        )
    }

    /// Exposes the raw detector for callers that manage indexes themselves.
    pub fn detect(&self, mask: &Mask, micro: crate::microtile::MicroTile) -> MicroTileIndex {
        detect_mask(&self.cost, mask, micro, self.detect_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_sparse::generate;
    use pit_tensor::ops;

    fn engine() -> Pit {
        Pit::new(DeviceSpec::a100_80gb())
    }

    #[test]
    fn masked_matmul_matches_reference_row_sparse() {
        let pit = engine();
        let lens: Vec<usize> = (0..32).map(|i| 8 + (i * 5) % 24).collect();
        let mask = generate::token_row_mask(&lens, 64, 128);
        let a = mask.apply(&Tensor::random([2048, 128], 1));
        let b = Tensor::random([128, 64], 2);
        let exec = pit.matmul_masked(&a, &mask, &b, DType::F32).unwrap();
        assert!(exec
            .output
            .tensor
            .allclose(&ops::matmul(&a, &b).unwrap(), 1e-3));
        assert!(exec.selection.rule.is_some());
        assert!(exec.detection.latency_s > 0.0);
    }

    #[test]
    fn masked_matmul_matches_reference_fine_sparse() {
        let pit = engine();
        let mask = generate::granular_random(128, 256, 8, 1, 0.95, 3);
        let a = mask.apply(&Tensor::random([128, 256], 4));
        let b = Tensor::random([256, 64], 5);
        let exec = pit.matmul_masked(&a, &mask, &b, DType::F32).unwrap();
        assert!(exec
            .output
            .tensor
            .allclose(&ops::matmul(&a, &b).unwrap(), 1e-3));
    }

    #[test]
    fn dense_fallback_for_dense_input() {
        let pit = engine();
        let a = Tensor::random([64, 64], 6);
        let mask = Mask::ones(64, 64);
        let exec = pit
            .matmul_masked(&a, &mask, &Tensor::random([64, 64], 7), DType::F32)
            .unwrap();
        assert!(exec.selection.rule.is_none());
        assert_eq!(exec.detection.latency_s, 0.0);
    }

    #[test]
    fn dyn_sparse_detects_from_values() {
        let pit = engine();
        let mask = generate::relu_activation_mask(128, 128, 0.97, 8);
        let a = mask.apply(&Tensor::random([128, 128], 9));
        let b = Tensor::random([128, 32], 10);
        let exec = pit.matmul_dyn_sparse(&a, &b, DType::F32).unwrap();
        assert!(exec
            .output
            .tensor
            .allclose(&ops::matmul(&a, &b).unwrap(), 1e-3));
    }

    #[test]
    fn dyn_sparse_rejects_a_that_is_not_a_matrix() {
        let pit = engine();
        let a = Tensor::random([64], 32);
        let err = pit
            .matmul_dyn_sparse(&a, &Tensor::random([64, 8], 33), DType::F32)
            .unwrap_err();
        assert!(matches!(err, TensorError::RankMismatch { .. }), "{err}");
    }

    #[test]
    fn selection_is_cached_across_calls() {
        let pit = engine();
        let mask = generate::granular_random(64, 64, 8, 1, 0.9, 11);
        let a = mask.apply(&Tensor::random([64, 64], 12));
        let b = Tensor::random([64, 32], 13);
        pit.matmul_masked(&a, &mask, &b, DType::F32).unwrap();
        pit.matmul_masked(&a, &mask, &b, DType::F32).unwrap();
        assert_eq!(pit.cache().misses(), 1);
        assert_eq!(pit.cache().hits(), 1);
    }

    #[test]
    fn sdd_masks_output() {
        let pit = engine();
        let a = Tensor::random([64, 32], 14);
        let b = Tensor::random([32, 64], 15);
        let mask = generate::longformer_mask(64, 16, &[0]);
        let exec = pit.sdd(&a, &b, &mask, DType::F32).unwrap();
        let want = mask.apply(&ops::matmul(&a, &b).unwrap());
        assert!(exec.output.tensor.allclose(&want, 1e-3));
    }

    #[test]
    fn moe_gemm_runs_all_experts_in_one_launch() {
        let pit = engine();
        let tokens = Tensor::random([48, 32], 16);
        let weights: Vec<Tensor> = (0..4).map(|e| Tensor::random([32, 16], 40 + e)).collect();
        let plan = generate::RoutingPlan::sample(48, 4, 1.0, 17);
        let out = pit
            .moe_gemm(&tokens, &weights, &plan.expert_token_lists(), DType::F32)
            .unwrap();
        assert_eq!(out.tensor.shape().dims(), &[48, 16]);
        assert!(out.stats.latency_s > 0.0);
    }

    #[test]
    fn masked_matmul_rejects_mask_smaller_than_a() {
        let pit = engine();
        let a = Tensor::random([128, 64], 20);
        let err = pit
            .matmul_masked(
                &a,
                &Mask::ones(64, 64),
                &Tensor::random([64, 32], 21),
                DType::F32,
            )
            .unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn masked_matmul_rejects_mask_larger_than_a() {
        let pit = engine();
        let mask = generate::granular_random(128, 64, 8, 1, 0.9, 22);
        let a = Tensor::random([64, 64], 23);
        let err = pit
            .matmul_masked(&a, &mask, &Tensor::random([64, 32], 24), DType::F32)
            .unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn sdd_rejects_mask_not_shaped_like_output() {
        let pit = engine();
        let a = Tensor::random([64, 32], 25);
        let b = Tensor::random([32, 48], 26);
        let mask = generate::longformer_mask(64, 16, &[0]);
        let err = pit.sdd(&a, &b, &mask, DType::F32).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn moe_gemm_rejects_expert_and_list_count_mismatch() {
        let pit = engine();
        let tokens = Tensor::random([8, 16], 27);
        let weights: Vec<Tensor> = (0..3).map(|e| Tensor::random([16, 8], 50 + e)).collect();
        let lists = vec![vec![0, 1], vec![2, 3]];
        let err = pit
            .moe_gemm(&tokens, &weights, &lists, DType::F32)
            .unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn moe_gemm_rejects_token_out_of_bounds() {
        let pit = engine();
        let tokens = Tensor::random([8, 16], 28);
        let weights: Vec<Tensor> = (0..2).map(|e| Tensor::random([16, 8], 60 + e)).collect();
        let lists = vec![vec![0, 7], vec![8]];
        let err = pit
            .moe_gemm(&tokens, &weights, &lists, DType::F32)
            .unwrap_err();
        let want = TensorError::IndexOutOfBounds {
            index: 8,
            extent: 8,
            axis: 0,
        };
        assert_eq!(err, want);
    }

    #[test]
    fn moe_gemm_keeps_contraction_error_for_expert_rows() {
        let pit = engine();
        let tokens = Tensor::random([8, 16], 29);
        let weights = vec![Tensor::random([16, 8], 70), Tensor::random([12, 8], 71)];
        let lists = vec![vec![0, 1], vec![2]];
        let err = pit
            .moe_gemm(&tokens, &weights, &lists, DType::F32)
            .unwrap_err();
        let want = TensorError::ContractionMismatch {
            lhs_inner: 16,
            rhs_inner: 12,
        };
        assert_eq!(err, want);
    }

    #[test]
    fn matmul_rows_rejects_row_out_of_bounds() {
        let pit = engine();
        let a = Tensor::random([16, 8], 30);
        let b = Tensor::random([8, 8], 31);
        let err = pit
            .matmul_rows(&a, &[3, 16], &b, None, DType::F32)
            .unwrap_err();
        let want = TensorError::IndexOutOfBounds {
            index: 16,
            extent: 16,
            axis: 0,
        };
        assert_eq!(err, want);
    }

    #[test]
    fn matmul_rows_uses_explicit_row_list() {
        let pit = engine();
        let a = Tensor::random([32, 32], 18);
        let b = Tensor::random([32, 32], 19);
        let rows: Vec<u32> = (0..16).collect();
        let out = pit.matmul_rows(&a, &rows, &b, None, DType::F32).unwrap();
        let reference = ops::matmul(&a, &b).unwrap();
        for &r in &rows {
            assert_eq!(
                out.tensor.row(r as usize).unwrap(),
                reference.row(r as usize).unwrap()
            );
        }
    }
}
