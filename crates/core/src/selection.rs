//! Kernel selection for a dynamically sparse operator (paper Algorithm 1).
//!
//! Given sparsity samples of an operator's input, the selector iterates
//! over every dense computation tile in the database and every PIT-axis of
//! the operator, derives the micro-tile each combination admits, runs
//! `CoverAlgo` on the samples, and estimates the sparse kernel's cost as
//! the number of covering tiles times the profiled tile cost (refined with
//! the wave/occupancy model the rest of the reproduction uses). The dense
//! kernel is always a candidate, so low-sparsity inputs *seamlessly fall
//! back to dense computation* (§3.2).
//!
//! The search charges a *modelled* cost: a deterministic function of the
//! candidate count and sample count calibrated to the paper's reported
//! 30–100 µs per selection (§5.5), exposed as
//! [`SelectedKernel::modelled_search_s`]. That is what the serving stack
//! folds into its virtual clock, so replays are bit-deterministic; the
//! measured wall time still rides along in
//! [`SelectedKernel::search_time`] as an annotation, and lets experiments
//! verify the reproduction stays in the "fast enough for online use" band.

use crate::kernels::{spmm_k_axis_cost, spmm_m_axis_cost, spmm_segment_cost};
use crate::microtile::{MatmulAxis, MicroTile, PitRule};
use pit_gpusim::cost::TileDims;
use pit_gpusim::CostModel;
use pit_kernels::tiles::TileDb;
use pit_sparse::Mask;
use pit_tensor::DType;
use std::time::{Duration, Instant};

/// The outcome of one Algorithm-1 search.
#[derive(Debug, Clone)]
pub struct SelectedKernel {
    /// The chosen PIT rule, or `None` when the dense fallback won.
    pub rule: Option<PitRule>,
    /// Predicted latency of the chosen kernel (seconds).
    pub predicted_cost_s: f64,
    /// Predicted latency of the best dense kernel (seconds), for reference.
    pub dense_cost_s: f64,
    /// Sparsity remaining after covering with the chosen micro-tile
    /// (Table 3's "Sparsity Ratio After Cover"); 0 for the dense fallback.
    pub after_cover_sparsity: f64,
    /// Candidate kernels the search scored (dense fallback, every
    /// admissible tile × PIT axis, and the row-segment candidate).
    pub candidates: usize,
    /// Modelled search cost (seconds): a deterministic function of
    /// `candidates` and the sample count, calibrated to the paper's
    /// 30–100 µs selection band (§5.5). This — never the measured wall
    /// time — is what belongs in a virtual clock.
    pub modelled_search_s: f64,
    /// Measured wall-clock time of the search. An annotation only: it
    /// varies run to run with host load, so folding it into modelled
    /// time would break replay determinism.
    pub search_time: Duration,
}

/// Fixed modelled overhead per search (shape hashing, sample setup).
const SEARCH_BASE_S: f64 = 24e-6;

/// Modelled cost of scoring one candidate against one sparsity sample.
const SEARCH_PER_SCORE_S: f64 = 0.5e-6;

/// The deterministic Algorithm-1 search cost model: a base overhead plus
/// one scoring term per (candidate, sample) pair. For the tile databases
/// and sample counts the serving stack uses this lands in the paper's
/// 30–100 µs band (§5.5).
pub fn modelled_search_cost_s(candidates: usize, samples: usize) -> f64 {
    SEARCH_BASE_S + SEARCH_PER_SCORE_S * (candidates * samples) as f64
}

impl SelectedKernel {
    /// The micro-tile of the chosen rule, if a sparse kernel was chosen.
    pub fn micro(&self) -> Option<MicroTile> {
        self.rule.map(|r| r.micro)
    }

    /// The dense computation tile of the chosen kernel.
    pub fn tile(&self) -> Option<TileDims> {
        self.rule.map(|r| r.tile)
    }
}

/// Runs Algorithm 1 for a matmul `C[M,n] = A[M,K]·B[K,n]` with sparse `A`,
/// over the given sparsity samples of `A`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn select_kernel(
    cost: &CostModel,
    db: &TileDb,
    samples: &[Mask],
    n: usize,
    dtype: DType,
) -> SelectedKernel {
    assert!(!samples.is_empty(), "need at least one sparsity sample");
    let start = Instant::now();
    let tc = dtype.tensor_core_eligible();
    let (m, k) = (samples[0].rows(), samples[0].cols());

    // Dense fallback: best dense tile for the full GEMM.
    let (_, dense_cost) = db.best_dense_gemm(cost, m, k, n, tc);

    let mut best_rule: Option<PitRule> = None;
    let mut best_cost = dense_cost;
    let mut best_after_cover = 0.0f64;
    // The dense fallback is always scored; sparse candidates add to this.
    let mut candidates = 1usize;

    // Per-sample aggregates, computed once and reused across candidates
    // (this is what keeps the online search in the paper's µs band, §5.5):
    // nnz, non-zero row count, and per-strip non-zero column counts for
    // every distinct tile height in the database.
    let sample_nnz: Vec<usize> = samples.iter().map(|s| s.nnz()).collect();
    let sample_rows: Vec<usize> = samples.iter().map(|s| s.nonzero_rows().len()).collect();
    let mut heights: Vec<usize> = db.tiles(tc).map(|t| t.dims.m).collect();
    heights.sort_unstable();
    heights.dedup();
    let strip_counts: Vec<Vec<Vec<usize>>> = samples
        .iter()
        .map(|s| heights.iter().map(|&h| s.strip_col_counts(h)).collect())
        .collect();

    for profiled in db.tiles(tc) {
        let tile = profiled.dims;
        if tile.m > m.max(1) * 2 {
            continue; // Tile grossly larger than the operand.
        }
        let h_idx = heights
            .iter()
            .position(|&h| h == tile.m)
            .expect("height precomputed");
        for axis in [MatmulAxis::M, MatmulAxis::K] {
            candidates += 1;
            let rule = PitRule::derive(axis, tile, tc);
            let mut total = 0.0f64;
            let mut after_cover = 0.0f64;
            for (i, &nnz) in sample_nnz.iter().enumerate() {
                let est = match axis {
                    MatmulAxis::M => {
                        // Covering rows at (1, tile.k) granularity reduces
                        // to "rows with at least one non-zero".
                        let r = sample_rows[i];
                        let covered = r * k;
                        after_cover += if covered == 0 {
                            0.0
                        } else {
                            1.0 - nnz as f64 / covered as f64
                        };
                        spmm_m_axis_cost(cost, r, k, n, nnz, tile, dtype).latency_s
                    }
                    MatmulAxis::K => {
                        let counts = &strip_counts[i][h_idx];
                        let covered: usize = counts
                            .iter()
                            .enumerate()
                            .map(|(s, &c)| c * tile.m.min(m - s * tile.m))
                            .sum();
                        after_cover += if covered == 0 {
                            0.0
                        } else {
                            1.0 - nnz as f64 / covered as f64
                        };
                        spmm_k_axis_cost(cost, counts, n, nnz, tile, dtype).latency_s
                    }
                    MatmulAxis::N => unreachable!("A-sparse selection uses M/K"),
                };
                total += est;
            }
            let mean = total / samples.len() as f64;
            if mean < best_cost {
                best_cost = mean;
                best_rule = Some(rule);
                best_after_cover = after_cover / samples.len() as f64;
            }
        }
    }

    // Row-segment candidate: when non-zeros come in horizontal runs
    // ((1, w)-granular sparsity), a (1, run-length) micro-tile feeds a
    // vectorised segment kernel no strip-merge rule can beat.
    candidates += 1;
    let mut total = 0.0f64;
    let mut mean_run = 0.0f64;
    for (sample, &nnz) in samples.iter().zip(&sample_nnz) {
        let run = sample.avg_run_length(64);
        mean_run += run;
        total += spmm_segment_cost(cost, m, n, nnz, run.max(1.0), dtype).latency_s;
    }
    let mean = total / samples.len() as f64;
    mean_run /= samples.len() as f64;
    let mean_density = sample_nnz.iter().sum::<usize>() as f64 / (samples.len() * m * k) as f64;
    // Fine-grained segment kernels only pay off beyond ~50% sparsity
    // (Figure 16 starts there); below that the dense tile always wins on
    // real hardware, so the candidate is gated accordingly.
    if mean < best_cost && mean_run >= 2.0 && mean_density <= 0.5 {
        best_cost = mean;
        let micro_w = (mean_run.round() as usize).clamp(2, 64);
        best_rule = Some(PitRule {
            axis: MatmulAxis::K,
            micro: MicroTile::new(1, micro_w),
            tile: TileDims::new(1, micro_w, 128),
            tensor_core: tc,
        });
        best_after_cover = 0.0;
    }

    SelectedKernel {
        rule: best_rule,
        predicted_cost_s: best_cost,
        dense_cost_s: dense_cost,
        after_cover_sparsity: best_after_cover,
        candidates,
        modelled_search_s: modelled_search_cost_s(candidates, samples.len()),
        search_time: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_gpusim::DeviceSpec;
    use pit_sparse::generate;

    fn setup() -> (CostModel, TileDb) {
        let cost = CostModel::new(DeviceSpec::a100_80gb());
        let db = TileDb::profile(&cost);
        (cost, db)
    }

    #[test]
    fn dense_input_falls_back_to_dense() {
        let (cost, db) = setup();
        let sample = Mask::ones(1024, 1024);
        let sel = select_kernel(&cost, &db, &[sample], 1024, DType::F32);
        assert!(sel.rule.is_none(), "dense input must pick dense kernel");
        assert_eq!(sel.predicted_cost_s, sel.dense_cost_s);
    }

    #[test]
    fn row_sparse_input_picks_m_axis() {
        let (cost, db) = setup();
        // 32 sequences of ~25% average occupancy: most token rows are
        // padding (sequence-padding shape) at a batch size that saturates
        // the device.
        let lens: Vec<usize> = (0..32).map(|i| 16 + (i * 7) % 48).collect();
        let sample = generate::token_row_mask(&lens, 128, 1024);
        let sel = select_kernel(&cost, &db, &[sample], 1024, DType::F32);
        let rule = sel.rule.expect("sparse kernel expected");
        assert_eq!(rule.axis, MatmulAxis::M);
        assert!(sel.predicted_cost_s < sel.dense_cost_s);
    }

    #[test]
    fn column_granular_input_picks_k_axis() {
        let (cost, db) = setup();
        // (32,1)-granular sparsity at 95%: every row non-empty, columns
        // sparse per strip -> k-axis merging wins.
        let sample = generate::granular_random(1024, 1024, 32, 1, 0.95, 3);
        let sel = select_kernel(&cost, &db, &[sample], 1024, DType::F32);
        let rule = sel.rule.expect("sparse kernel expected");
        assert_eq!(rule.axis, MatmulAxis::K);
        assert!(sel.predicted_cost_s < sel.dense_cost_s);
    }

    #[test]
    fn low_sparsity_prefers_dense() {
        let (cost, db) = setup();
        let sample = generate::granular_random(512, 512, 1, 1, 0.10, 4);
        let sel = select_kernel(&cost, &db, &[sample], 512, DType::F32);
        assert!(sel.rule.is_none(), "10% sparsity should stay dense");
    }

    #[test]
    fn search_is_fast_enough_for_online_use() {
        // §5.5 reports 30–100 µs on the paper's host; allow a generous
        // budget here but stay well inside "online" territory.
        let (cost, db) = setup();
        let sample = generate::granular_random(1024, 1024, 8, 1, 0.95, 5);
        let sel = select_kernel(&cost, &db, &[sample], 1024, DType::F32);
        assert!(
            sel.search_time < Duration::from_millis(100),
            "search took {:?}",
            sel.search_time
        );
    }

    #[test]
    fn modelled_search_cost_is_deterministic_and_in_the_paper_band() {
        let (cost, db) = setup();
        let sample = generate::granular_random(1024, 1024, 8, 1, 0.95, 5);
        let a = select_kernel(&cost, &db, std::slice::from_ref(&sample), 1024, DType::F32);
        let b = select_kernel(&cost, &db, std::slice::from_ref(&sample), 1024, DType::F32);
        // The measured wall clock jitters; the modelled cost must not.
        assert_eq!(a.modelled_search_s, b.modelled_search_s);
        assert_eq!(a.candidates, b.candidates);
        assert!(a.candidates > 1, "sparse candidates were scored");
        assert!(
            (30e-6..=150e-6).contains(&a.modelled_search_s),
            "modelled cost {} outside the §5.5 band",
            a.modelled_search_s
        );
        assert_eq!(a.modelled_search_s, modelled_search_cost_s(a.candidates, 1));
        // More samples cost more scoring time, deterministically.
        let more = select_kernel(
            &cost,
            &db,
            &[sample.clone(), sample.clone(), sample],
            1024,
            DType::F32,
        );
        assert!(more.modelled_search_s > a.modelled_search_s);
    }

    #[test]
    fn multiple_samples_average() {
        let (cost, db) = setup();
        // (2,1) granularity is finer than any admissible micro-tile, so
        // covering leaves residual sparsity (Table 3, rows 1-2).
        let samples: Vec<Mask> = (0..4)
            .map(|s| generate::granular_random(512, 512, 2, 1, 0.95, s))
            .collect();
        let sel = select_kernel(&cost, &db, &samples, 512, DType::F32);
        assert!(sel.rule.is_some());
        assert!(sel.after_cover_sparsity > 0.0 && sel.after_cover_sparsity < 1.0);
    }

    #[test]
    fn tensor_core_path_selects_wmma_tiles() {
        let (cost, db) = setup();
        let sample = generate::granular_random(1024, 1024, 32, 1, 0.99, 6);
        let sel = select_kernel(&cost, &db, &[sample], 1024, DType::F16);
        if let Some(rule) = sel.rule {
            assert!(rule.tensor_core);
        }
    }
}
