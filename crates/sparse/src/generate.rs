//! Generators for every class of dynamic sparsity in the paper (Figure 2).

use crate::mask::Mask;
use pit_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random mask that is non-zero in blocks of `gran_h × gran_w` ("sparsity
/// granularity" in the paper), targeting the given sparsity ratio.
///
/// Each granularity block is independently non-zero with probability
/// `1 - sparsity`; at the tensor sizes used by the experiments (≥1024²) the
/// realised ratio is within a fraction of a percent of the target.
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1]` or a granularity dim is zero.
pub fn granular_random(
    rows: usize,
    cols: usize,
    gran_h: usize,
    gran_w: usize,
    sparsity: f64,
    seed: u64,
) -> Mask {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    assert!(gran_h > 0 && gran_w > 0, "granularity must be positive");
    let density = 1.0 - sparsity;
    let mut rng = StdRng::seed_from_u64(seed);
    let grid_r = rows.div_ceil(gran_h);
    let grid_c = cols.div_ceil(gran_w);
    let mut m = Mask::zeros(rows, cols);
    for gr in 0..grid_r {
        for gc in 0..grid_c {
            if rng.gen_bool(density) {
                let r1 = ((gr + 1) * gran_h).min(rows);
                let c1 = ((gc + 1) * gran_w).min(cols);
                for r in gr * gran_h..r1 {
                    for c in gc * gran_w..c1 {
                        m.set(r, c, true);
                    }
                }
            }
        }
    }
    m
}

/// Fine-grained (1×1) activation sparsity as produced by ReLU in OPT's FFN
/// layers (paper §5.1: 95–99.9% zeros).
pub fn relu_activation_mask(rows: usize, cols: usize, sparsity: f64, seed: u64) -> Mask {
    granular_random(rows, cols, 1, 1, sparsity, seed)
}

/// Row mask over the flattened `[batch * max_len, hidden]` token matrix:
/// rows of real tokens are fully dense, padded rows are all-zero. This is
/// the shape in which dynamic sequence length appears to a GEMM.
pub fn token_row_mask(lens: &[usize], max_len: usize, hidden: usize) -> Mask {
    let mut m = Mask::zeros(lens.len() * max_len, hidden);
    for (i, &len) in lens.iter().enumerate() {
        let first = i * max_len;
        m.fill_rows(first..first + len.min(max_len));
    }
    m
}

/// Token→expert routing produced by an MoE gating function (Figure 2b).
#[derive(Debug, Clone)]
pub struct RoutingPlan {
    /// Number of experts.
    pub num_experts: usize,
    /// Expert chosen for each token (top-1 routing, as in Switch).
    pub assignments: Vec<usize>,
}

impl RoutingPlan {
    /// Samples a top-1 routing for `num_tokens` tokens over `num_experts`
    /// experts with a mild power-law imbalance (`skew = 0` is uniform;
    /// Switch-style routers are measurably imbalanced, so the MoE
    /// experiments use `skew ≈ 1`).
    pub fn sample(num_tokens: usize, num_experts: usize, skew: f64, seed: u64) -> Self {
        assert!(num_experts > 0, "need at least one expert");
        let mut rng = StdRng::seed_from_u64(seed);
        // Zipf-like unnormalised weights 1/(rank+1)^skew over a randomly
        // permuted expert order so the "hot" expert differs per seed.
        let mut order: Vec<usize> = (0..num_experts).collect();
        for i in (1..num_experts).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let weights: Vec<f64> = (0..num_experts)
            .map(|r| 1.0 / ((r + 1) as f64).powf(skew))
            .collect();
        let total: f64 = weights.iter().sum();
        let assignments = (0..num_tokens)
            .map(|_| {
                let mut u = rng.gen_range(0.0..total);
                for (rank, &w) in weights.iter().enumerate() {
                    if u < w {
                        return order[rank];
                    }
                    u -= w;
                }
                order[num_experts - 1]
            })
            .collect();
        RoutingPlan {
            num_experts,
            assignments,
        }
    }

    /// Number of routed tokens.
    pub fn num_tokens(&self) -> usize {
        self.assignments.len()
    }

    /// Tokens assigned to each expert, in token order.
    pub fn expert_token_lists(&self) -> Vec<Vec<usize>> {
        let mut lists = vec![Vec::new(); self.num_experts];
        for (tok, &e) in self.assignments.iter().enumerate() {
            lists[e].push(tok);
        }
        lists
    }

    /// Per-expert token counts.
    pub fn expert_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_experts];
        for &e in &self.assignments {
            counts[e] += 1;
        }
        counts
    }

    /// The largest per-expert token count (what padded BatchMatmul
    /// strategies must pad every expert to).
    pub fn max_tokens_per_expert(&self) -> usize {
        self.expert_counts().into_iter().max().unwrap_or(0)
    }

    /// The fixed per-expert capacity used by Tutel/DeepSpeed-style
    /// implementations: `capacity_factor * tokens / experts`, at least 1,
    /// and at least the actual maximum when `drop_tokens` is false.
    pub fn capacity(&self, capacity_factor: f64, drop_tokens: bool) -> usize {
        let even =
            (self.num_tokens() as f64 / self.num_experts as f64 * capacity_factor).ceil() as usize;
        let cap = even.max(1);
        if drop_tokens {
            cap
        } else {
            cap.max(self.max_tokens_per_expert())
        }
    }
}

/// Longformer-style dynamic sparse attention mask (Figure 2a / §5.1):
/// sliding window of `window` tokens around the diagonal plus full rows and
/// columns for the dynamically-chosen `global` token positions.
pub fn longformer_mask(seq: usize, window: usize, global: &[usize]) -> Mask {
    let half = window / 2;
    let mut m = Mask::from_fn(seq, seq, |r, c| {
        let lo = r.saturating_sub(half);
        let hi = (r + half).min(seq - 1);
        c >= lo && c <= hi
    });
    for &g in global {
        if g >= seq {
            continue;
        }
        for i in 0..seq {
            m.set(g, i, true);
            m.set(i, g, true);
        }
    }
    m
}

/// Magnitude pruning at block granularity (Figure 2d, §5.2): keeps the
/// `1 - sparsity` fraction of `gran_h × gran_w` blocks with the largest L1
/// magnitude and masks out the rest.
///
/// # Panics
///
/// Panics if `weights` is not rank 2.
pub fn magnitude_prune(weights: &Tensor, gran_h: usize, gran_w: usize, sparsity: f64) -> Mask {
    assert_eq!(weights.rank(), 2, "magnitude_prune requires a matrix");
    let (rows, cols) = (weights.shape().dim(0), weights.shape().dim(1));
    let grid_r = rows.div_ceil(gran_h);
    let grid_c = cols.div_ceil(gran_w);
    // Score every block by L1 magnitude.
    let mut scores: Vec<(f64, usize, usize)> = Vec::with_capacity(grid_r * grid_c);
    for gr in 0..grid_r {
        for gc in 0..grid_c {
            let mut s = 0.0f64;
            let r1 = ((gr + 1) * gran_h).min(rows);
            let c1 = ((gc + 1) * gran_w).min(cols);
            for r in gr * gran_h..r1 {
                for c in gc * gran_w..c1 {
                    s += weights.data()[r * cols + c].abs() as f64;
                }
            }
            scores.push((s, gr, gc));
        }
    }
    let keep = (((grid_r * grid_c) as f64) * (1.0 - sparsity)).round() as usize;
    scores.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("no NaN magnitudes"));
    let mut m = Mask::zeros(rows, cols);
    for &(_, gr, gc) in scores.iter().take(keep) {
        let r1 = ((gr + 1) * gran_h).min(rows);
        let c1 = ((gc + 1) * gran_w).min(cols);
        for r in gr * gran_h..r1 {
            for c in gc * gran_w..c1 {
                m.set(r, c, true);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granular_random_hits_target_sparsity() {
        let m = granular_random(512, 512, 1, 1, 0.9, 7);
        assert!((m.sparsity() - 0.9).abs() < 0.01, "got {}", m.sparsity());
    }

    #[test]
    fn granular_random_respects_granularity() {
        let m = granular_random(64, 64, 8, 8, 0.5, 3);
        // Every 8x8 block must be all-zero or all-one.
        for gr in 0..8 {
            for gc in 0..8 {
                let nnz = m.block_nnz(gr * 8, gc * 8, 8, 8);
                assert!(nnz == 0 || nnz == 64, "block ({gr},{gc}) has {nnz}");
            }
        }
    }

    #[test]
    fn granular_random_extremes() {
        assert_eq!(granular_random(32, 32, 4, 4, 1.0, 1).nnz(), 0);
        assert_eq!(granular_random(32, 32, 4, 4, 0.0, 1).nnz(), 1024);
    }

    #[test]
    fn token_row_mask_equals_the_per_bit_mask() {
        // Widths below, at and across a word boundary.
        for hidden in [1, 63, 64, 65, 128, 130] {
            let (lens, max_len) = ([0, 3, 7, 5], 5);
            let m = token_row_mask(&lens, max_len, hidden);
            let per_bit = Mask::from_fn(lens.len() * max_len, hidden, |r, _| {
                r % max_len < lens[r / max_len]
            });
            assert_eq!(m, per_bit, "hidden {hidden}");
        }
    }

    #[test]
    fn token_row_mask_shape_and_density() {
        let m = token_row_mask(&[2, 4], 4, 8);
        assert_eq!(m.rows(), 8);
        assert_eq!(m.cols(), 8);
        assert_eq!(m.nnz(), (2 + 4) * 8);
        assert!(m.row_any(0) && !m.row_any(2));
    }

    #[test]
    fn routing_plan_counts_sum_to_tokens() {
        let plan = RoutingPlan::sample(1000, 16, 1.0, 42);
        assert_eq!(plan.expert_counts().iter().sum::<usize>(), 1000);
        assert_eq!(plan.expert_token_lists().len(), 16);
    }

    #[test]
    fn routing_skew_creates_imbalance() {
        let uniform = RoutingPlan::sample(10_000, 8, 0.0, 1);
        let skewed = RoutingPlan::sample(10_000, 8, 1.5, 1);
        assert!(skewed.max_tokens_per_expert() > uniform.max_tokens_per_expert());
    }

    #[test]
    fn capacity_covers_max_when_not_dropping() {
        let plan = RoutingPlan::sample(100, 4, 2.0, 9);
        let cap = plan.capacity(1.0, false);
        assert!(cap >= plan.max_tokens_per_expert());
        let dropping = plan.capacity(1.0, true);
        assert_eq!(dropping, 25);
    }

    #[test]
    fn longformer_mask_has_window_and_global() {
        let m = longformer_mask(64, 8, &[0]);
        assert!(m.get(32, 30)); // Inside window.
        assert!(!m.get(32, 2)); // Outside window...
        assert!(m.get(32, 0)); // ...but global column 0.
        assert!(m.get(0, 63)); // Global row 0.
    }

    #[test]
    fn magnitude_prune_keeps_largest_blocks() {
        let mut t = Tensor::zeros([4, 4]);
        // Block (0,0) large, block (1,1) medium, others zero; 2x2 blocks.
        t.set(&[0, 0], 10.0).unwrap();
        t.set(&[2, 2], 5.0).unwrap();
        let m = magnitude_prune(&t, 2, 2, 0.5);
        assert!(m.get(0, 0) && m.get(0, 1)); // Whole top-left block kept.
        assert!(m.get(2, 2));
        assert!(!m.get(0, 2) && !m.get(2, 0));
    }

    #[test]
    fn magnitude_prune_sparsity_matches() {
        let t = Tensor::random([64, 64], 5);
        let m = magnitude_prune(&t, 8, 8, 0.75);
        assert!((m.sparsity() - 0.75).abs() < 0.02);
    }
}
