//! The §5.6 sparsity-pattern repetition study.
//!
//! A hypothetical alternative to PIT is to memorise frequent sparsity
//! patterns and reuse per-pattern compiled kernels. Figure 20 invalidates
//! it: traversing MNLI, barely 0.4% of batches hit a previously-seen
//! sequence-length pattern, and 0.1% for ReLU activation patterns. This
//! module reproduces that measurement over the synthetic workloads.

use crate::datasets::DatasetSpec;
use pit_sparse::generate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// A request arrival trace for serving experiments: per-request prompt
/// lengths drawn from a dataset's length distribution, plus Poisson
/// arrival offsets. Closed-loop load generators use only the lengths;
/// open-loop replay (a ROADMAP follow-up) uses the timestamps too.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    /// Prompt length of each request, in arrival order.
    pub lens: Vec<usize>,
    /// Arrival time of each request (seconds since trace start),
    /// non-decreasing.
    pub arrival_s: Vec<f64>,
}

impl ArrivalTrace {
    /// Samples a trace of `n` requests from `spec`'s length distribution
    /// with exponential (Poisson-process) inter-arrivals at `rate_rps`
    /// requests per second. Deterministic per seed.
    pub fn poisson(spec: &DatasetSpec, n: usize, rate_rps: f64, seed: u64) -> Self {
        assert!(rate_rps > 0.0, "arrival rate must be positive");
        let lens = spec.sample_lengths(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut t = 0.0;
        let arrival_s = (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(1e-12..1.0);
                t += -u.ln() / rate_rps;
                t
            })
            .collect();
        ArrivalTrace { lens, arrival_s }
    }

    /// Samples a bursty on/off trace: arrivals are Poisson at `burst_rps`
    /// during ON phases (exponential duration, mean `mean_on_s`) separated
    /// by silent OFF gaps (exponential, mean `mean_off_s`) — the classic
    /// interrupted-Poisson model of diurnal/bursty serving traffic, which
    /// stresses admission far harder than a smooth Poisson stream of the
    /// same average rate. Deterministic per seed.
    pub fn bursty(
        spec: &DatasetSpec,
        n: usize,
        burst_rps: f64,
        mean_on_s: f64,
        mean_off_s: f64,
        seed: u64,
    ) -> Self {
        assert!(burst_rps > 0.0, "burst arrival rate must be positive");
        assert!(mean_on_s > 0.0, "ON phases must have positive mean length");
        assert!(mean_off_s >= 0.0, "OFF gap mean cannot be negative");
        let lens = spec.sample_lengths(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);
        let mut exp = move |mean: f64| {
            let u: f64 = rng.gen_range(1e-12..1.0);
            -u.ln() * mean
        };
        let mut t = 0.0_f64;
        let mut on_left = exp(mean_on_s);
        let mut arrival_s = Vec::with_capacity(n);
        for _ in 0..n {
            loop {
                let gap = exp(1.0 / burst_rps);
                if gap <= on_left {
                    on_left -= gap;
                    t += gap;
                    break;
                }
                // The ON window ends before the next arrival: burn its
                // remainder, sleep through an OFF gap, start a new window.
                t += on_left + exp(mean_off_s);
                on_left = exp(mean_on_s);
            }
            arrival_s.push(t);
        }
        ArrivalTrace { lens, arrival_s }
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True when the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Total real tokens across all requests.
    pub fn total_tokens(&self) -> usize {
        self.lens.iter().sum()
    }
}

/// Seeded sampler for decode (output) lengths: a truncated geometric
/// distribution, the standard first-order model of autoregressive output
/// lengths (each step stops with fixed probability, giving the heavy
/// right tail real chat/completion traces show).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeSpec {
    /// Mean output length the geometric targets (before truncation).
    pub mean_out: f64,
    /// Minimum output length (every request decodes at least this many
    /// tokens; 1 = the prefill's own first token only).
    pub min_out: usize,
    /// Maximum output length (generation cap).
    pub max_out: usize,
}

impl DecodeSpec {
    /// A geometric output-length distribution with the given mean and
    /// truncation bounds.
    pub fn geometric(mean_out: f64, min_out: usize, max_out: usize) -> Self {
        assert!(min_out >= 1, "every request emits at least one token");
        assert!(max_out >= min_out, "max_out must be >= min_out");
        DecodeSpec {
            mean_out: mean_out.max(min_out as f64),
            min_out,
            max_out,
        }
    }

    /// Short classification-style generations: mean 8 tokens, 1..=32.
    pub fn short() -> Self {
        Self::geometric(8.0, 1, 32)
    }

    /// Summarization-style generations: every request writes a real
    /// summary (≥ 16 tokens) and the geometric tail reaches 768 — so a
    /// request's KV footprint is dominated by its *output*, growing page
    /// by page long after admission. Paired with a short-prompt dataset
    /// (e.g. `DatasetSpec::cola`) this is the workload that reliably
    /// drives KV-pool pressure: admission sees tiny prompts and says yes,
    /// then decode growth outruns the pool and the preemption policy —
    /// recompute vs swap-to-host — decides what that costs.
    pub fn summarization() -> Self {
        Self::geometric(192.0, 16, 768)
    }

    /// Samples `n` output lengths, deterministically per seed.
    pub fn sample_output_lens(&self, n: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x517c_c1b7_2722_0a95);
        // Geometric over {0, 1, ...} via inverse CDF, shifted by min_out:
        // stop probability p chosen so the un-truncated mean is mean_out.
        let extra_mean = (self.mean_out - self.min_out as f64).max(0.0);
        let p = 1.0 / (extra_mean + 1.0);
        let log1mp = (1.0 - p).ln();
        (0..n)
            .map(|_| {
                let extra = if log1mp == 0.0 {
                    // p == 1: degenerate at min_out.
                    0
                } else {
                    let u: f64 = rng.gen_range(1e-12..1.0);
                    (u.ln() / log1mp).floor() as usize
                };
                (self.min_out + extra).min(self.max_out)
            })
            .collect()
    }
}

/// A decode serving trace: per-request prompt lengths, target output
/// lengths and arrival timestamps. The decode runtime replays it open-loop
/// — each request is admitted at its arrival time, prefilled once, then
/// decodes one token per iteration until its output length is reached.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeTrace {
    /// Prompt length of each request, in arrival order.
    pub prompt_lens: Vec<usize>,
    /// Output (decode) length of each request.
    pub output_lens: Vec<usize>,
    /// Arrival time of each request (seconds since trace start),
    /// non-decreasing.
    pub arrival_s: Vec<f64>,
    /// Prompt token IDs per request — what prefix caching matches on.
    /// Empty when the trace carries only lengths (no prompt content);
    /// when present, `prompt_ids[i].len() == prompt_lens[i]`.
    pub prompt_ids: Vec<Vec<u32>>,
}

impl DecodeTrace {
    /// Samples a trace of `n` requests: prompts from `spec`, output
    /// lengths from `decode`, Poisson arrivals at `rate_rps`.
    /// Deterministic per seed.
    pub fn poisson(
        spec: &DatasetSpec,
        decode: &DecodeSpec,
        n: usize,
        rate_rps: f64,
        seed: u64,
    ) -> Self {
        let arrivals = ArrivalTrace::poisson(spec, n, rate_rps, seed);
        let output_lens = decode.sample_output_lens(n, seed);
        DecodeTrace {
            prompt_lens: arrivals.lens,
            output_lens,
            arrival_s: arrivals.arrival_s,
            prompt_ids: Vec::new(),
        }
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.prompt_lens.len()
    }

    /// True when the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.prompt_lens.is_empty()
    }

    /// Total prompt tokens across all requests.
    pub fn total_prompt_tokens(&self) -> usize {
        self.prompt_lens.iter().sum()
    }

    /// Total decoded tokens across all requests.
    pub fn total_output_tokens(&self) -> usize {
        self.output_lens.iter().sum()
    }

    /// Total real tokens the trace serves (prompt + output).
    pub fn total_tokens(&self) -> usize {
        self.total_prompt_tokens() + self.total_output_tokens()
    }
}

/// Seeded generator of prompts with *shared prefixes*: every prompt is
/// `system prompt ++ template ++ unique tail`, with the system prompt and
/// template drawn from small pools under a Zipf-ish popularity law — the
/// first-order model of production chat traffic, where a handful of
/// system prompts and few-shot templates front nearly every request.
/// This is the cross-request redundancy prefix caching harvests.
///
/// Generation pays for what repeats once: within one
/// [`prompts`](Self::prompts) call each pool stream is drawn at its first
/// pick and copied into every later prompt that picks it, and each pool's
/// Zipf table is built once. The ids do not depend on that sharing: a
/// pool stream comes from its own seeded generator, and the per-request
/// draws come from one main generator in a fixed order.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedPrefixSpec {
    /// Vocabulary size token IDs are drawn from.
    pub vocab: u32,
    /// Distinct system prompts in the pool.
    pub num_system_prompts: usize,
    /// Tokens per system prompt.
    pub system_tokens: usize,
    /// Distinct few-shot/task templates per system prompt.
    pub num_templates: usize,
    /// Tokens per template.
    pub template_tokens: usize,
    /// Minimum unique-tail tokens per request (the user's own turn).
    pub unique_min: usize,
    /// Maximum unique-tail tokens per request.
    pub unique_max: usize,
    /// Zipf exponent of pool popularity (0 = uniform; larger = a few
    /// system prompts dominate, raising the achievable hit rate).
    pub zipf_exponent: f64,
}

impl SharedPrefixSpec {
    /// A chat-assistant-style workload: 8 system prompts of 256 tokens,
    /// 24 templates of 64 tokens each, 16–96 unique tokens per request,
    /// Zipf 1.1 popularity — most prompts share their first ~320 tokens
    /// with many other live requests.
    pub fn assistants() -> Self {
        SharedPrefixSpec {
            vocab: 32_000,
            num_system_prompts: 8,
            system_tokens: 256,
            num_templates: 24,
            template_tokens: 64,
            unique_min: 16,
            unique_max: 96,
            zipf_exponent: 1.1,
        }
    }

    /// Token stream of pool entry `k` in pool `tag`, deterministic per
    /// spec seed.
    fn pool_tokens(&self, seed: u64, tag: u64, k: usize, len: usize) -> Vec<u32> {
        let mut rng =
            StdRng::seed_from_u64(seed ^ tag.rotate_left(17) ^ (k as u64).wrapping_mul(0x9e37));
        (0..len).map(|_| rng.gen_range(0..self.vocab)).collect()
    }

    /// Generates `n` prompts (token IDs), deterministic per seed.
    ///
    /// A call builds the two pools' Zipf tables once, and draws each system
    /// prompt's stream and each (system prompt, template) stream once, at
    /// its first pick; every prompt that picks a stream gets a copy. Each
    /// prompt is allocated once at its final length, and only its unique
    /// tail is drawn per request. Nothing outlives the call.
    pub fn prompts(&self, n: usize, seed: u64) -> Vec<Vec<u32>> {
        assert!(self.vocab >= 2, "need a non-trivial vocabulary");
        assert!(self.num_system_prompts >= 1 && self.num_templates >= 1);
        assert!(self.unique_max >= self.unique_min);
        let system_zipf = Zipf::new(self.num_system_prompts, self.zipf_exponent);
        let template_zipf = Zipf::new(self.num_templates, self.zipf_exponent);
        // Templates are per-system-prompt so template reuse only pays off
        // behind a shared system prefix (page-granular matching cannot
        // reuse a template under a different prefix anyway): a template
        // stream is keyed by both picks, as `pool_tokens` seeds it. The
        // map holds the pairs drawn, at most one per prompt, rather than
        // a slot for every pair the two pools can form.
        let mut systems: Vec<Option<Vec<u32>>> = vec![None; self.num_system_prompts];
        let pairs = self.num_system_prompts.saturating_mul(self.num_templates);
        let mut templates: HashMap<(usize, usize), Vec<u32>> = HashMap::with_capacity(n.min(pairs));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6c62_272e_07bb_0142);
        (0..n)
            .map(|_| {
                let sys = system_zipf.pick(&mut rng);
                let tpl = template_zipf.pick(&mut rng);
                let tail_len = rng.gen_range(self.unique_min..self.unique_max + 1);
                let system = systems[sys]
                    .get_or_insert_with(|| self.pool_tokens(seed, 0x5359, sys, self.system_tokens));
                let template = templates.entry((sys, tpl)).or_insert_with(|| {
                    self.pool_tokens(
                        seed,
                        0x54504c ^ (sys as u64) << 32,
                        tpl,
                        self.template_tokens,
                    )
                });
                let mut prompt = Vec::with_capacity(system.len() + template.len() + tail_len);
                prompt.extend_from_slice(system);
                prompt.extend_from_slice(template);
                prompt.extend((0..tail_len).map(|_| rng.gen_range(0..self.vocab)));
                prompt
            })
            .collect()
    }

    /// Builds a [`DecodeTrace`] with prompt content: prompts from this
    /// spec, output lengths from `decode`, and the caller's arrival
    /// timestamps (e.g. [`ArrivalTrace::bursty`]). Deterministic per seed.
    /// The prompts come from one [`prompts`](Self::prompts) call, so the
    /// trace's pool streams and Zipf tables are built once and shared by
    /// copy.
    pub fn decode_trace(&self, decode: &DecodeSpec, arrival_s: Vec<f64>, seed: u64) -> DecodeTrace {
        let n = arrival_s.len();
        let prompt_ids = self.prompts(n, seed);
        DecodeTrace {
            prompt_lens: prompt_ids.iter().map(Vec::len).collect(),
            output_lens: decode.sample_output_lens(n, seed),
            arrival_s,
            prompt_ids,
        }
    }
}

/// A pool's Zipf popularity table: entry `k` weighs
/// `1/(k+1)^exponent`. [`SharedPrefixSpec::prompts`] builds one per pool
/// per call.
struct Zipf {
    weights: Vec<f64>,
    total: f64,
}

impl Zipf {
    fn new(pool: usize, exponent: f64) -> Self {
        let weights: Vec<f64> = (0..pool)
            .map(|k| 1.0 / ((k + 1) as f64).powf(exponent))
            .collect();
        let total: f64 = weights.iter().sum();
        Zipf { weights, total }
    }

    /// Samples a pool index with probability `∝ 1/(rank+1)^exponent`.
    fn pick(&self, rng: &mut StdRng) -> usize {
        let mut u = rng.gen_range(0.0..1.0) * self.total;
        for (k, w) in self.weights.iter().enumerate() {
            if u < *w {
                return k;
            }
            u -= w;
        }
        self.weights.len() - 1
    }
}

/// Cumulative hit ratio after each batch: entry `i` is
/// `hits_so_far / (i + 1)`.
pub fn cumulative_hit_ratio(hashes: impl IntoIterator<Item = u64>) -> Vec<f64> {
    let mut seen = HashSet::new();
    let mut hits = 0usize;
    let mut out = Vec::new();
    for (i, h) in hashes.into_iter().enumerate() {
        if !seen.insert(h) {
            hits += 1;
        }
        out.push(hits as f64 / (i + 1) as f64);
    }
    out
}

/// Pattern hash of one batch's sequence-length pattern (order matters: the
/// padding mask is positional).
pub fn seqlen_pattern_hash(lens: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in lens {
        for b in (l as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Runs the sequence-length repetition study: traverses `num_batches`
/// batches of the dataset and returns the cumulative hit-ratio curve.
pub fn seqlen_study(spec: &DatasetSpec, batch: usize, num_batches: usize, seed: u64) -> Vec<f64> {
    cumulative_hit_ratio(
        (0..num_batches).map(|i| seqlen_pattern_hash(&spec.sample_lengths(batch, seed + i as u64))),
    )
}

/// Runs the ReLU-activation repetition study: each batch's activation mask
/// (at the given sparsity) is hashed; returns the cumulative hit ratio.
pub fn relu_study(
    rows: usize,
    cols: usize,
    sparsity: f64,
    num_batches: usize,
    seed: u64,
) -> Vec<f64> {
    cumulative_hit_ratio((0..num_batches).map(|i| {
        generate::relu_activation_mask(rows, cols, sparsity, seed + i as u64).pattern_hash()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Chat-style completions: mean 64 tokens, 1..=256.
    fn chat() -> DecodeSpec {
        DecodeSpec::geometric(64.0, 1, 256)
    }

    /// The generator as it was before a `prompts` call shared its pool
    /// streams and Zipf tables: every request redraws its system prompt
    /// and template from their seeds and rebuilds the Zipf weights for
    /// each pick. The exactness reference for `prompts`.
    impl SharedPrefixSpec {
        /// Samples a pool index with probability `∝ 1/(rank+1)^zipf_exponent`.
        fn zipf_pick(&self, pool: usize, rng: &mut StdRng) -> usize {
            let weights: Vec<f64> = (0..pool)
                .map(|k| 1.0 / ((k + 1) as f64).powf(self.zipf_exponent))
                .collect();
            let total: f64 = weights.iter().sum();
            let mut u = rng.gen_range(0.0..1.0) * total;
            for (k, w) in weights.iter().enumerate() {
                if u < *w {
                    return k;
                }
                u -= w;
            }
            pool - 1
        }

        /// Generates `n` prompts (token IDs), deterministic per seed.
        fn reference_prompts(&self, n: usize, seed: u64) -> Vec<Vec<u32>> {
            assert!(self.vocab >= 2, "need a non-trivial vocabulary");
            assert!(self.num_system_prompts >= 1 && self.num_templates >= 1);
            assert!(self.unique_max >= self.unique_min);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x6c62_272e_07bb_0142);
            (0..n)
                .map(|_| {
                    let sys = self.zipf_pick(self.num_system_prompts, &mut rng);
                    let tpl = self.zipf_pick(self.num_templates, &mut rng);
                    let tail_len = rng.gen_range(self.unique_min..self.unique_max + 1);
                    let mut prompt = self.pool_tokens(seed, 0x5359, sys, self.system_tokens);
                    // Templates are per-system-prompt so template reuse only
                    // pays off behind a shared system prefix (page-granular
                    // matching cannot reuse a template under a different
                    // prefix anyway).
                    prompt.extend(self.pool_tokens(
                        seed,
                        0x54504c ^ (sys as u64) << 32,
                        tpl,
                        self.template_tokens,
                    ));
                    prompt.extend((0..tail_len).map(|_| rng.gen_range(0..self.vocab)));
                    prompt
                })
                .collect()
        }
    }

    #[test]
    fn assistants_prompts_equal_the_per_request_reference() {
        let spec = SharedPrefixSpec::assistants();
        // 64 and 1856: the first `decode_pressure` trace of hostbench's
        // seeds 1 and 29.
        for seed in [1, 64, 1856] {
            let got = spec.prompts(4000, seed);
            assert!(got == spec.reference_prompts(4000, seed), "seed {seed}");
            let arrivals = ArrivalTrace::bursty(&DatasetSpec::mnli(), 4000, 300.0, 0.1, 0.1, seed);
            let t = spec.decode_trace(&DecodeSpec::summarization(), arrivals.arrival_s, seed);
            assert!(t.prompt_ids == got, "decode_trace, seed {seed}");
            assert!(t.prompt_lens.iter().copied().eq(got.iter().map(Vec::len)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Small pools, so that one call picks most streams many times
        /// and two system prompts share template indices: a memo keyed on
        /// anything less than what seeds a stream diverges here.
        #[test]
        fn prompts_equal_the_per_request_reference_on_small_specs(
            num_system_prompts in 1usize..=5,
            num_templates in 1usize..=5,
            system_tokens in 0usize..=40,
            template_tokens in 0usize..=40,
            tail_a in 0usize..=40,
            tail_b in 0usize..=40,
            equal_tails in 0u8..4,
            zipf_exponent in 0.0f64..=2.0,
            vocab in vec![2u32, 7, 32_000],
            n in 0usize..=48,
            seed in 0u64..=u64::MAX,
        ) {
            let (unique_min, unique_max) = if equal_tails == 0 {
                (tail_a, tail_a)
            } else {
                (tail_a.min(tail_b), tail_a.max(tail_b))
            };
            let spec = SharedPrefixSpec {
                vocab,
                num_system_prompts,
                system_tokens,
                num_templates,
                template_tokens,
                unique_min,
                unique_max,
                zipf_exponent,
            };
            prop_assert!(spec.prompts(n, seed) == spec.reference_prompts(n, seed), "{spec:?}");
        }
    }

    #[test]
    fn arrival_trace_is_deterministic_and_ordered() {
        let spec = DatasetSpec::mnli();
        let a = ArrivalTrace::poisson(&spec, 128, 50.0, 7);
        let b = ArrivalTrace::poisson(&spec, 128, 50.0, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 128);
        assert!(a.arrival_s.windows(2).all(|w| w[0] <= w[1]));
        assert!(a
            .lens
            .iter()
            .all(|&l| l >= spec.min_len && l <= spec.max_len));
        assert_eq!(a.total_tokens(), a.lens.iter().sum::<usize>());
        // Mean inter-arrival should be near 1/rate.
        let mean_gap = a.arrival_s.last().unwrap() / 128.0;
        assert!((mean_gap - 0.02).abs() < 0.01, "mean gap {mean_gap}");
    }

    #[test]
    fn decode_lengths_are_seeded_and_bounded() {
        let spec = chat();
        let a = spec.sample_output_lens(512, 3);
        let b = spec.sample_output_lens(512, 3);
        assert_eq!(a, b);
        assert_ne!(a, spec.sample_output_lens(512, 4));
        assert!(a
            .iter()
            .all(|&o| (spec.min_out..=spec.max_out).contains(&o)));
        // The truncated mean lands near the target (truncation pulls down).
        let mean = a.iter().sum::<usize>() as f64 / a.len() as f64;
        assert!(
            (mean - spec.mean_out).abs() < spec.mean_out * 0.25,
            "mean {mean} vs {}",
            spec.mean_out
        );
        // Geometric tail: some short, some long outputs.
        assert!(a.iter().any(|&o| o <= 8));
        assert!(a.iter().any(|&o| o >= 128));
    }

    #[test]
    fn summarization_outputs_are_long_and_heavy_tailed() {
        let spec = DecodeSpec::summarization();
        let lens = spec.sample_output_lens(512, 7);
        assert!(lens.iter().all(|&o| (16..=768).contains(&o)));
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        assert!(
            (mean - spec.mean_out).abs() < spec.mean_out * 0.25,
            "mean {mean} vs {}",
            spec.mean_out
        );
        // Heavy tail: a meaningful share of requests run very long —
        // the page-by-page growth that creates KV pressure.
        let long = lens.iter().filter(|&&o| o >= 384).count();
        assert!(long >= 32, "expected a heavy tail, saw {long}/512 >= 384");
        // Outputs dominate prompts for a short-prompt dataset: the KV
        // footprint is output-driven.
        let prompts = crate::datasets::DatasetSpec::cola().sample_lengths(512, 7);
        let prompt_mean = prompts.iter().sum::<usize>() as f64 / prompts.len() as f64;
        assert!(mean > 8.0 * prompt_mean, "{mean} vs prompt {prompt_mean}");
    }

    #[test]
    fn decode_spec_degenerate_mean_pins_to_min() {
        let spec = DecodeSpec::geometric(1.0, 4, 64);
        // mean_out clamps to min_out, p == 1, every draw is min_out.
        assert!(spec.sample_output_lens(64, 9).iter().all(|&o| o == 4));
    }

    #[test]
    fn decode_trace_pairs_prompts_outputs_and_arrivals() {
        let t = DecodeTrace::poisson(&DatasetSpec::mnli(), &chat(), 96, 100.0, 5);
        assert_eq!(t.len(), 96);
        assert_eq!(t.prompt_lens.len(), t.output_lens.len());
        assert_eq!(t.prompt_lens.len(), t.arrival_s.len());
        assert!(t.arrival_s.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            t.total_tokens(),
            t.total_prompt_tokens() + t.total_output_tokens()
        );
        // Prompts reuse the ArrivalTrace sampler: same seed, same lengths.
        let a = ArrivalTrace::poisson(&DatasetSpec::mnli(), 96, 100.0, 5);
        assert_eq!(t.prompt_lens, a.lens);
        assert_eq!(t.arrival_s, a.arrival_s);
        assert!(!t.is_empty());
    }

    #[test]
    fn bursty_trace_is_seeded_ordered_and_gappy() {
        let spec = DatasetSpec::mnli();
        let a = ArrivalTrace::bursty(&spec, 256, 200.0, 0.2, 1.0, 11);
        let b = ArrivalTrace::bursty(&spec, 256, 200.0, 0.2, 1.0, 11);
        assert_eq!(a, b);
        assert_ne!(a, ArrivalTrace::bursty(&spec, 256, 200.0, 0.2, 1.0, 12));
        assert_eq!(a.len(), 256);
        assert!(a.arrival_s.windows(2).all(|w| w[0] <= w[1]));
        // ON/OFF structure: inter-arrival gaps are bimodal — most are
        // burst-rate gaps (~5 ms), but OFF periods inject gaps far longer
        // than Poisson at the same burst rate would ever produce.
        let gaps: Vec<f64> = a.arrival_s.windows(2).map(|w| w[1] - w[0]).collect();
        let long = gaps.iter().filter(|&&g| g > 0.5).count();
        let short = gaps.iter().filter(|&&g| g < 0.05).count();
        assert!(long >= 3, "expected OFF gaps, saw {long}");
        assert!(short > gaps.len() / 2, "bursts dominate, saw {short}");
    }

    #[test]
    fn shared_prefix_prompts_share_page_aligned_prefixes() {
        let spec = SharedPrefixSpec::assistants();
        let a = spec.prompts(128, 5);
        assert_eq!(a, spec.prompts(128, 5), "seeded");
        assert_ne!(a, spec.prompts(128, 6));
        // Every prompt starts with one of the pool's system prompts.
        let systems: Vec<Vec<u32>> = (0..spec.num_system_prompts)
            .map(|k| spec.pool_tokens(5, 0x5359, k, spec.system_tokens))
            .collect();
        let mut counts = vec![0usize; spec.num_system_prompts];
        for p in &a {
            assert!(p.len() >= spec.system_tokens + spec.template_tokens + spec.unique_min);
            assert!(p.len() <= spec.system_tokens + spec.template_tokens + spec.unique_max);
            let k = systems
                .iter()
                .position(|s| p.starts_with(s))
                .expect("prompt starts with a pooled system prompt");
            counts[k] += 1;
        }
        // Zipf skew: the most popular system prompt beats the uniform
        // share, so prefix reuse concentrates where caching can win.
        assert!(counts[0] > 128 / spec.num_system_prompts, "{counts:?}");
    }

    #[test]
    fn shared_prefix_decode_trace_pairs_ids_and_lens() {
        let spec = SharedPrefixSpec::assistants();
        let arrivals = ArrivalTrace::bursty(&DatasetSpec::mnli(), 64, 300.0, 0.2, 0.5, 9);
        let t = spec.decode_trace(&chat(), arrivals.arrival_s.clone(), 9);
        assert_eq!(t.len(), 64);
        assert_eq!(t.prompt_ids.len(), t.len());
        for (ids, &len) in t.prompt_ids.iter().zip(&t.prompt_lens) {
            assert_eq!(ids.len(), len);
        }
        assert_eq!(t.arrival_s, arrivals.arrival_s);
        assert!(t.output_lens.iter().all(|&o| o >= 1));
        // Plain poisson traces carry no prompt content.
        let plain = DecodeTrace::poisson(&DatasetSpec::mnli(), &chat(), 8, 10.0, 1);
        assert!(plain.prompt_ids.is_empty());
    }

    #[test]
    fn identical_patterns_hit() {
        let ratios = cumulative_hit_ratio([1u64, 1, 1, 1]);
        assert_eq!(ratios, vec![0.0, 0.5, 2.0 / 3.0, 0.75]);
    }

    #[test]
    fn unique_patterns_never_hit() {
        let ratios = cumulative_hit_ratio([1u64, 2, 3, 4]);
        assert!(ratios.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn seqlen_hash_is_order_sensitive() {
        assert_ne!(seqlen_pattern_hash(&[3, 5]), seqlen_pattern_hash(&[5, 3]));
        assert_eq!(seqlen_pattern_hash(&[3, 5]), seqlen_pattern_hash(&[3, 5]));
    }

    #[test]
    fn mnli_seqlen_hit_ratio_is_low() {
        // Figure 20: ~0.4% for sequence-length patterns at batch 8, lower
        // at batch 32.
        let r8 = seqlen_study(&DatasetSpec::mnli(), 8, 500, 1);
        let r32 = seqlen_study(&DatasetSpec::mnli(), 32, 500, 1);
        assert!(
            *r8.last().unwrap() < 0.05,
            "batch-8 ratio {}",
            r8.last().unwrap()
        );
        assert!(r32.last().unwrap() <= r8.last().unwrap());
    }

    #[test]
    fn relu_hit_ratio_is_essentially_zero() {
        let r = relu_study(64, 64, 0.95, 200, 3);
        assert!(*r.last().unwrap() < 0.01);
    }
}
