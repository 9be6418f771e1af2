//! Property-based tests (proptest) for the batching and serving
//! invariants: padding accounting and the continuous-batching packer's
//! budget/ordering guarantees.

use pit::serve::{BatchPolicy, KvSparsityPolicy};
use pit::workloads::{Batch, DatasetSpec};
use proptest::prelude::*;

/// The KV-sparsity eviction plan as first written — every middle page
/// collected, heavy hitters marked in a scratch vector, the rest kept —
/// the oracle for the allocation-free `evict_positions`.
fn evict_positions_oracle(policy: KvSparsityPolicy, len: usize, ps: usize) -> Vec<usize> {
    let (recent, heavy) = match policy {
        KvSparsityPolicy::Dense => return Vec::new(),
        KvSparsityPolicy::SlidingWindow { recent } => (recent, 0),
        KvSparsityPolicy::HeavyHitter { recent, heavy } => (recent, heavy),
    };
    let full = len / ps;
    let window_start = (len - recent.min(len)) / ps;
    let hi = window_start.min(full);
    if hi <= 1 {
        return Vec::new();
    }
    let middle: Vec<usize> = (1..hi).collect();
    let hh = heavy.div_ceil(ps).min(middle.len());
    let mut keep = vec![false; middle.len()];
    for j in 0..hh {
        keep[j * middle.len() / hh] = true;
    }
    middle
        .into_iter()
        .zip(keep)
        .filter(|&(_, kept)| !kept)
        .map(|(pos, _)| pos)
        .collect()
}

/// Pseudo-random pending lengths derived from a seed (1..=max_len each).
fn lens_from_seed(n: usize, max_len: usize, seed: u64) -> Vec<usize> {
    (0..n)
        .map(|i| {
            let h = (seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
            (h as usize % max_len) + 1
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Padding accounting: for any batch, real tokens never exceed padded
    /// tokens and the waste ratio is a valid fraction.
    #[test]
    fn padding_accounting_is_sane(
        n in 0usize..64,
        max_len in 1usize..256,
        seed in 0u64..10_000,
    ) {
        let lens = lens_from_seed(n, max_len, seed);
        let longest = Batch::padded_to_longest(lens);
        prop_assert!(longest.real_tokens() <= longest.padded_tokens());
        prop_assert!((0.0..=1.0).contains(&longest.padding_waste()));
    }

    /// The padding-free packer never exceeds its token budget (except for
    /// a single oversized request, which must still make progress) and
    /// always takes a non-empty FIFO prefix.
    #[test]
    fn packer_respects_token_budget(
        n in 1usize..64,
        budget in 16usize..4096,
        max_len in 1usize..512,
        seed in 0u64..10_000,
    ) {
        let pending = lens_from_seed(n, max_len, seed);
        let policy = BatchPolicy::PaddingFree { token_budget: budget };
        let take = policy.take_count(pending.iter().copied());
        prop_assert!(take >= 1 && take <= pending.len());
        let packed: usize = pending[..take].iter().sum();
        prop_assert!(packed <= budget || take == 1,
            "packed {packed} tokens over budget {budget} with take {take}");
        // Progress: leftover pending forms further batches until drained.
        let mut rest = pending;
        let mut drained = 0usize;
        while !rest.is_empty() {
            let t = policy.take_count(rest.iter().copied());
            prop_assert!(t >= 1);
            drained += rest.drain(..t).sum::<usize>();
        }
        prop_assert_eq!(drained, lens_from_seed(n, max_len, seed).iter().sum::<usize>());
    }

    /// No policy reorders tokens within a request or across the FIFO
    /// prefix: the formed batch's `lens` are exactly the taken requests in
    /// admission order, each contributing one intact length entry, and the
    /// processed view never shrinks a request below its real length.
    #[test]
    fn packer_preserves_request_order_and_integrity(
        n in 1usize..48,
        seed in 0u64..10_000,
        budget in 64usize..2048,
        max_batch in 1usize..32,
        buckets in 1usize..8,
    ) {
        let pending = DatasetSpec::mnli().sample_lengths(n, seed);
        for policy in [
            BatchPolicy::PaddingFree { token_budget: budget },
            BatchPolicy::PaddedToLongest { max_batch },
            BatchPolicy::Bucketed { max_batch, buckets },
        ] {
            let take = policy.take_count(pending.iter().copied());
            let formed = policy.form(pending[..take].to_vec());
            prop_assert_eq!(formed.lens.as_slice(), &pending[..take]);
            prop_assert_eq!(formed.real_tokens,
                pending[..take].iter().sum::<usize>());
            prop_assert!(formed.padded_tokens >= formed.real_tokens);
            prop_assert!((0.0..=1.0).contains(&formed.padding_waste()));
            // Every request is processed whole: the effective layout holds
            // at least its real tokens.
            prop_assert_eq!(formed.effective_lens.len(), formed.lens.len());
            prop_assert!(formed.effective_lens.iter().sum::<usize>() >= formed.real_tokens);
        }
    }

    /// Waste ordering across policies on identical prefixes: padding-free
    /// is exactly zero-waste; bucketing never wastes more than padding to
    /// the longest.
    #[test]
    fn policy_waste_ordering(
        n in 2usize..48,
        seed in 0u64..10_000,
        buckets in 1usize..8,
    ) {
        let lens = DatasetSpec::mnli().sample_lengths(n, seed);
        let free = BatchPolicy::PaddingFree { token_budget: usize::MAX }.form(lens.clone());
        let padded = BatchPolicy::PaddedToLongest { max_batch: n }.form(lens.clone());
        let bucketed = BatchPolicy::Bucketed { max_batch: n, buckets }.form(lens);
        prop_assert_eq!(free.padding_waste(), 0.0);
        prop_assert!(bucketed.padded_tokens <= padded.padded_tokens);
        prop_assert!(free.padded_tokens <= bucketed.padded_tokens);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The eviction plan equals the oracle for every policy and geometry,
    /// including windows and heavy-hitter budgets wider than the cache,
    /// and an empty plan holds no allocation.
    #[test]
    fn evict_positions_match_the_scratch_vector_oracle(
        len in 0usize..5000,
        page_size in 1usize..64,
        recent in 1usize..2048,
        heavy in 1usize..2048,
        which in 0u8..3,
    ) {
        let policy = match which {
            0 => KvSparsityPolicy::Dense,
            1 => KvSparsityPolicy::SlidingWindow { recent },
            _ => KvSparsityPolicy::HeavyHitter { recent, heavy },
        };
        let got = policy.evict_positions(len, page_size);
        prop_assert_eq!(&got, &evict_positions_oracle(policy, len, page_size));
        if got.is_empty() {
            prop_assert_eq!(got.capacity(), 0);
        }
    }
}
