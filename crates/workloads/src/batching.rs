//! Batching helpers: padding waste and TurboTransformers-style re-batching.

/// Fraction of `padded` token slots that are padding waste (0 when
/// nothing was processed). Shared by [`Batch`], the serving scheduler's
/// formed batches and the serving report so the metric cannot diverge.
pub fn padding_waste(real_tokens: usize, padded_tokens: usize) -> f64 {
    if padded_tokens == 0 {
        return 0.0;
    }
    1.0 - real_tokens as f64 / padded_tokens as f64
}

/// One padded batch of variable-length sequences (Figure 2c).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Real sequence lengths.
    pub lens: Vec<usize>,
    /// Length every sequence is padded to.
    pub max_len: usize,
}

impl Batch {
    /// Builds a batch padded to the longest sequence in it.
    pub fn padded_to_longest(lens: Vec<usize>) -> Self {
        let max_len = lens.iter().copied().max().unwrap_or(0);
        Batch { lens, max_len }
    }

    /// Number of sequences.
    pub fn batch_size(&self) -> usize {
        self.lens.len()
    }

    /// Tokens after padding (`batch * max_len`).
    pub fn padded_tokens(&self) -> usize {
        self.lens.len() * self.max_len
    }

    /// Real (non-padding) tokens.
    pub fn real_tokens(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Fraction of padded positions that are waste.
    pub fn padding_waste(&self) -> f64 {
        padding_waste(self.real_tokens(), self.padded_tokens())
    }

    /// Sum of squared *real* lengths — the attention-score work a
    /// padding-free implementation performs.
    pub fn sum_sq_real(&self) -> usize {
        self.lens.iter().map(|&l| l * l).sum()
    }

    /// Sum of squared *padded* lengths — the attention-score work a padded
    /// implementation performs.
    pub fn sum_sq_padded(&self) -> usize {
        self.lens.len() * self.max_len * self.max_len
    }

    /// TurboTransformers-style smart batching: sorts sequences by length
    /// and splits them into `num_buckets` contiguous groups, each padded to
    /// its own maximum. Returns the sub-batches in processing order.
    pub fn rebucket(&self, num_buckets: usize) -> Vec<Batch> {
        assert!(num_buckets > 0, "need at least one bucket");
        let mut sorted = self.lens.clone();
        sorted.sort_unstable();
        let per = sorted.len().div_ceil(num_buckets);
        sorted
            .chunks(per.max(1))
            .map(|chunk| Batch::padded_to_longest(chunk.to_vec()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_waste_basic() {
        let b = Batch {
            lens: vec![10, 20, 30],
            max_len: 40,
        };
        assert_eq!(b.padded_tokens(), 120);
        assert_eq!(b.real_tokens(), 60);
        assert!((b.padding_waste() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn padded_to_longest_uses_batch_max() {
        let b = Batch::padded_to_longest(vec![5, 17, 9]);
        assert_eq!(b.max_len, 17);
        assert_eq!(b.padded_tokens(), 51);
    }

    #[test]
    fn rebucket_reduces_waste() {
        let lens: Vec<usize> = (1..=64).collect();
        let one = Batch::padded_to_longest(lens.clone());
        let buckets = one.rebucket(8);
        let bucket_padded: usize = buckets.iter().map(Batch::padded_tokens).sum();
        assert!(bucket_padded < one.padded_tokens());
        let total_real: usize = buckets.iter().map(Batch::real_tokens).sum();
        assert_eq!(total_real, one.real_tokens());
    }

    #[test]
    fn attention_work_relation() {
        let b = Batch {
            lens: vec![16, 64],
            max_len: 128,
        };
        assert!(b.sum_sq_real() < b.sum_sq_padded());
        assert_eq!(b.sum_sq_real(), 16 * 16 + 64 * 64);
    }

    #[test]
    fn empty_batch_is_safe() {
        let b = Batch::padded_to_longest(vec![]);
        assert_eq!(b.padding_waste(), 0.0);
        assert_eq!(b.padded_tokens(), 0);
    }
}
