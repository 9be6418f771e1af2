//! Continuous-batching policies: how pending requests become GPU batches.
//!
//! The padding-free policy is the serving-side face of PIT's Figure-2c
//! argument: because PIT's micro-tile GEMMs operate at token granularity,
//! a batch needs no rectangular shape — the scheduler can greedily pack
//! whole requests up to a *token* budget and the kernels process exactly
//! those tokens. The baselines pack by *request count* and pay for the
//! rectangle: padded-to-longest processes `batch × max_len` tokens,
//! TurboTransformers-style bucketing recovers part of the waste by
//! length-sorting into per-bucket rectangles.
//!
//! All policies share two scheduling invariants (property-tested at the
//! workspace level): requests are taken strictly in admission (FIFO) order,
//! and a request's tokens are never split or reordered — each request
//! contributes one contiguous `len` entry to exactly one formed batch.

use pit_models::Framework;
use pit_workloads::Batch;
use std::collections::vec_deque::{Drain, VecDeque};

/// How the scheduler forms batches from the pending queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// PIT: pack whole requests greedily until the next request would
    /// exceed `token_budget` real tokens. No padding is added; the GPU
    /// processes exactly the packed tokens.
    PaddingFree {
        /// Maximum real tokens per formed batch (a single longer request
        /// still forms a batch of one — requests are never split).
        token_budget: usize,
    },
    /// Baseline: take up to `max_batch` requests and pad every sequence to
    /// the longest in the batch.
    PaddedToLongest {
        /// Maximum requests per formed batch.
        max_batch: usize,
    },
    /// TurboTransformers-style: take up to `max_batch` requests,
    /// length-sort them into `buckets` groups, pad each group to its own
    /// maximum.
    Bucketed {
        /// Maximum requests per formed batch.
        max_batch: usize,
        /// Number of length buckets.
        buckets: usize,
    },
}

impl BatchPolicy {
    /// Display name used in metrics summaries.
    pub fn name(&self) -> &'static str {
        match self {
            BatchPolicy::PaddingFree { .. } => "padding-free",
            BatchPolicy::PaddedToLongest { .. } => "padded-to-longest",
            BatchPolicy::Bucketed { .. } => "bucketed",
        }
    }

    /// The execution strategy the analytic engine models for this policy.
    pub fn framework(&self) -> Framework {
        match self {
            BatchPolicy::PaddingFree { .. } => Framework::Pit,
            BatchPolicy::PaddedToLongest { .. } => Framework::PyTorch,
            BatchPolicy::Bucketed { .. } => Framework::TurboTransformer,
        }
    }

    /// How many of the pending requests (given as lengths, FIFO order) the
    /// next batch takes. Always at least 1 when `pending` is non-empty —
    /// the scheduler never stalls on an oversized request. Reads no
    /// further than the batch's bound: padding-free stops at the first
    /// length over the token budget, the padded policies after
    /// `max_batch` lengths.
    pub fn take_count(&self, pending: impl IntoIterator<Item = usize>) -> usize {
        match *self {
            BatchPolicy::PaddingFree { token_budget } => {
                let mut tokens = 0usize;
                let mut take = 0usize;
                for len in pending {
                    if take > 0 && tokens + len > token_budget {
                        break;
                    }
                    tokens += len;
                    take += 1;
                }
                take
            }
            BatchPolicy::PaddedToLongest { max_batch }
            | BatchPolicy::Bucketed { max_batch, .. } => {
                pending.into_iter().take(max_batch.max(1)).count()
            }
        }
    }

    /// Takes the next batch off the front of `pending`, whose requests'
    /// lengths `len` reads: forms it ([`BatchPolicy::form`]) and drains
    /// the requests it takes, in FIFO order. Only the taken requests and
    /// the one after them are read, so draining a queue costs time linear
    /// in its depth.
    pub(crate) fn take_batch<'q, T>(
        &self,
        pending: &'q mut VecDeque<T>,
        len: impl Fn(&T) -> usize,
    ) -> (FormedBatch, Drain<'q, T>) {
        let take = self.take_count(pending.iter().map(&len));
        let formed = self.form(pending.iter().take(take).map(&len).collect());
        (formed, pending.drain(..take))
    }

    /// Forms a batch from the taken requests (lengths in admission order).
    pub fn form(&self, lens: Vec<usize>) -> FormedBatch {
        let real_tokens: usize = lens.iter().sum();
        let (effective_lens, padded_tokens) = match *self {
            // Token granularity: the GPU sees exactly the real tokens.
            BatchPolicy::PaddingFree { .. } => (lens.clone(), real_tokens),
            BatchPolicy::PaddedToLongest { .. } => {
                let b = Batch::padded_to_longest(lens.clone());
                (vec![b.max_len; b.batch_size()], b.padded_tokens())
            }
            BatchPolicy::Bucketed { buckets, .. } => {
                let b = Batch::padded_to_longest(lens.clone());
                let effective: Vec<usize> = b
                    .rebucket(buckets.max(1))
                    .into_iter()
                    .flat_map(|sub| vec![sub.max_len; sub.batch_size()])
                    .collect();
                let padded = effective.iter().sum();
                (effective, padded)
            }
        };
        FormedBatch {
            lens,
            effective_lens,
            real_tokens,
            padded_tokens,
        }
    }
}

/// One batch ready for a worker: the requests' real lengths (admission
/// order) and the per-sequence lengths the GPU actually processes under
/// the policy's layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormedBatch {
    /// Real request lengths, in admission order.
    pub lens: Vec<usize>,
    /// Per-sequence processed lengths (equal to `lens` when padding-free;
    /// padded lengths otherwise, in the layout's processing order).
    pub effective_lens: Vec<usize>,
    /// Total real tokens.
    pub real_tokens: usize,
    /// Total tokens the GPU processes (`>= real_tokens`).
    pub padded_tokens: usize,
}

impl FormedBatch {
    /// Number of requests in the batch.
    pub fn batch_size(&self) -> usize {
        self.lens.len()
    }

    /// Fraction of processed tokens that are padding waste.
    pub fn padding_waste(&self) -> f64 {
        pit_workloads::padding_waste(self.real_tokens, self.padded_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_free_packs_to_budget_without_exceeding() {
        let p = BatchPolicy::PaddingFree { token_budget: 100 };
        let pending = [40, 30, 25, 50];
        let take = p.take_count(pending);
        assert_eq!(take, 3); // 40+30+25 = 95 <= 100; +50 would exceed
        let formed = p.form(pending[..take].to_vec());
        assert_eq!(formed.real_tokens, 95);
        assert_eq!(formed.padded_tokens, 95);
        assert_eq!(formed.padding_waste(), 0.0);
        assert_eq!(formed.effective_lens, vec![40, 30, 25]);
    }

    #[test]
    fn oversized_request_forms_a_singleton_batch() {
        let p = BatchPolicy::PaddingFree { token_budget: 64 };
        assert_eq!(p.take_count([500, 10]), 1);
        let formed = p.form(vec![500]);
        assert_eq!(formed.real_tokens, 500);
        assert_eq!(formed.padding_waste(), 0.0);
    }

    #[test]
    fn padded_policy_pays_for_the_rectangle() {
        let p = BatchPolicy::PaddedToLongest { max_batch: 4 };
        assert_eq!(p.take_count([10, 20, 30, 40, 50]), 4);
        let formed = p.form(vec![10, 20, 30, 40]);
        assert_eq!(formed.padded_tokens, 4 * 40);
        assert_eq!(formed.real_tokens, 100);
        assert!(formed.padding_waste() > 0.3);
        assert_eq!(formed.effective_lens, vec![40; 4]);
    }

    #[test]
    fn bucketing_wastes_less_than_padding_more_than_pit() {
        let lens: Vec<usize> = (1..=32).map(|i| i * 4).collect();
        let padded = BatchPolicy::PaddedToLongest { max_batch: 32 }.form(lens.clone());
        let bucketed = BatchPolicy::Bucketed {
            max_batch: 32,
            buckets: 4,
        }
        .form(lens.clone());
        let free = BatchPolicy::PaddingFree { token_budget: 4096 }.form(lens);
        assert!(bucketed.padded_tokens < padded.padded_tokens);
        assert!(free.padded_tokens < bucketed.padded_tokens);
        assert_eq!(free.padding_waste(), 0.0);
        assert!(bucketed.padding_waste() < padded.padding_waste());
        // All policies conserve real tokens.
        assert_eq!(padded.real_tokens, bucketed.real_tokens);
        assert_eq!(padded.real_tokens, free.real_tokens);
    }

    #[test]
    fn take_count_is_fifo_prefix_and_nonzero() {
        for policy in [
            BatchPolicy::PaddingFree { token_budget: 128 },
            BatchPolicy::PaddedToLongest { max_batch: 8 },
            BatchPolicy::Bucketed {
                max_batch: 8,
                buckets: 2,
            },
        ] {
            assert_eq!(policy.take_count([]), 0);
            let pending = [64; 10];
            let take = policy.take_count(pending);
            assert!(take >= 1 && take < pending.len());
            let formed = policy.form(pending[..take].to_vec());
            // The formed batch's lens are exactly the FIFO prefix.
            assert_eq!(formed.lens, pending[..take].to_vec());
            // `take_batch` forms the same batch and drains exactly that
            // prefix off the queue.
            let mut queue: VecDeque<(usize, usize)> = pending.into_iter().enumerate().collect();
            let (batch, taken) = policy.take_batch(&mut queue, |&(_, len)| len);
            let ids: Vec<usize> = taken.map(|(id, _)| id).collect();
            assert_eq!(ids, (0..take).collect::<Vec<_>>());
            assert_eq!(batch, formed);
            assert_eq!(queue.front(), Some(&(take, 64)));
        }
    }

    #[test]
    fn effective_work_ordering_holds_for_attention_too() {
        // Attention-score work: `Σ l²` over the processed lengths.
        let score_work = |b: &FormedBatch| b.effective_lens.iter().map(|&l| l * l).sum::<usize>();
        let lens = vec![16, 32, 64, 128];
        let free = BatchPolicy::PaddingFree { token_budget: 4096 }.form(lens.clone());
        let padded = BatchPolicy::PaddedToLongest { max_batch: 4 }.form(lens);
        assert!(score_work(&free) < score_work(&padded));
    }

    #[test]
    fn take_count_reads_no_further_than_the_batch_bound() {
        for (policy, want) in [
            (BatchPolicy::PaddingFree { token_budget: 100 }, 3),
            (BatchPolicy::PaddingFree { token_budget: 10 }, 1),
            (BatchPolicy::PaddedToLongest { max_batch: 5 }, 5),
            (
                BatchPolicy::Bucketed {
                    max_batch: 2,
                    buckets: 2,
                },
                2,
            ),
        ] {
            // An endless queue of 30-token requests: a policy that read
            // every pending length would never return.
            let mut asked = 0;
            let lens = std::iter::repeat(30).inspect(|_| {
                asked += 1;
                assert!(asked <= want + 1, "{policy:?} read length {asked}");
            });
            assert_eq!(policy.take_count(lens), want);
        }
    }
}
