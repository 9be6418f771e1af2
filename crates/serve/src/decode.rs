//! Decode-phase continuous batching over a paged KV cache.
//!
//! A request is no longer one prefill: it is admitted (KV pages permitting),
//! prefilled once, then *rejoins the batch every iteration* contributing one
//! decode token until its seeded output length is reached. The scheduler
//! forms each iteration's mixed batch under two budgets:
//!
//! - a **token budget** — prefill tokens plus decode slots per step, the
//!   same Figure-2c argument as prefill serving (PIT's token-granularity
//!   kernels let prefill chunks and decode tokens pack into one
//!   padding-free GEMM);
//! - a **KV-page budget** — admission is gated on `pit_kv`'s free-page
//!   signal, and when decode growth outruns the pool the latest-arrived
//!   request is preempted. What preemption costs is [`PreemptPolicy`]'s
//!   call: **recompute** (pages freed, progress re-prefilled on
//!   re-admission — vLLM-style) or **swap-to-host** (exclusively-held
//!   pages cross the PCIe link into the pool's host tier and stream back
//!   on re-admission — `pit_swap` prices the transfers, eviction gates
//!   the reclaiming step, restores overlap later batches).
//!
//! On top of both budgets, a per-sequence **KV-sparsity policy**
//! ([`KvSparsityPolicy`]) can trim each decode slot's attention read set:
//! a StreamingLLM-style sink + sliding window, or H2O-style heavy-hitter
//! retention on top of it. Pages falling wholly outside the retained set
//! are evicted from the sequence's page table
//! ([`pit_kv::PagedKvCache::release_seq_pages`]) — their frames return to
//! the pool unless a prefix pin or shared-prefix sibling still holds them
//! — and each step's attention cost scales with the *attended* context
//! (micro-tile packed per PIT Algorithm 1) rather than the cached
//! context. The smaller footprint converts directly into fewer
//! preemptions at equal KV budget.
//!
//! The baseline is **static padded batching**: requests are batched once,
//! prompts padded to the batch maximum, KV reserved contiguously for the
//! worst case (`max prompt + max output` per slot), and every slot decodes
//! until the *longest* output finishes — finished slots keep burning
//! rectangle rows, exactly how a no-continuous-batching framework serves
//! autoregressive models.
//!
//! Both policies run on a virtual clock through the same analytic decode
//! engine ([`pit_models::decode::run_step`]) and the shared per-shape JIT
//! cache, so their reports are directly comparable: tokens per modelled
//! GPU second, padding waste, TTFT/inter-token/e2e percentiles, KV
//! occupancy/fragmentation and preemption counts.

use crate::metrics::{CacheStats, DecodeMetrics, DecodeReport};
use crate::runtime::charge_shape_selection;
use pit_core::jit::JitCache;
use pit_gpusim::DeviceSpec;
use pit_kv::{KvConfig, PagedKvCache};
use pit_models::decode::{run_step, DecodeSlot, StepShape};
use pit_models::{Engine, Framework, ModelConfig};
use pit_prefix::RadixPrefixIndex;
use pit_swap::{plan_swap_out, PageDesc, RestoreQueue, SwapEngine};
use pit_tensor::DType;
use pit_trace::{
    blame_spans, ExemplarReservoir, ExemplarSet, MetricsHub, StepSample, TraceEvent, TraceRecord,
    TraceSink, WaitCause, DEVICE_LANE, RESERVED_LANES,
};
use pit_workloads::DecodeTrace;
use std::collections::{BTreeMap, VecDeque};

/// How decode-phase batches are formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodePolicy {
    /// PIT continuous batching: every iteration packs newly-admitted
    /// prefills and all live decode tokens into one padding-free batch
    /// under `token_budget` rows; batch membership churns per iteration.
    ContinuousPaddingFree {
        /// Maximum rows (prefill tokens + decode slots) per iteration. A
        /// single longer prompt still prefills alone — requests are never
        /// split.
        token_budget: usize,
    },
    /// Baseline: up to `max_batch` requests are batched once, prompts
    /// padded to the batch maximum, KV reserved for the worst case, and
    /// the rectangle decodes until its longest output completes.
    StaticPadded {
        /// Maximum requests per static batch.
        max_batch: usize,
    },
}

impl DecodePolicy {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            DecodePolicy::ContinuousPaddingFree { .. } => "continuous-padding-free",
            DecodePolicy::StaticPadded { .. } => "static-padded",
        }
    }

    /// The execution strategy the analytic engine models for this policy.
    pub fn framework(&self) -> Framework {
        match self {
            DecodePolicy::ContinuousPaddingFree { .. } => Framework::Pit,
            DecodePolicy::StaticPadded { .. } => Framework::PyTorch,
        }
    }
}

/// What happens to a preemption victim's KV pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptPolicy {
    /// vLLM-style recompute: free the victim's pages; re-admission
    /// re-prefills its whole context from scratch. Costs prefill FLOPs,
    /// needs no host memory or PCIe bandwidth.
    Recompute,
    /// Swap to host: move the victim's exclusively-held pages across the
    /// PCIe link into a host staging pool (`pit_swap`) and stream them
    /// back on re-admission — the context is preserved, so nothing is
    /// re-prefilled. Costs transfer time (eviction gates the step that
    /// reclaims the frames; restores overlap later batches) and host
    /// pool space; falls back to recompute per victim when the host pool
    /// is full or the victim holds nothing swappable.
    SwapToHost,
}

impl PreemptPolicy {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            PreemptPolicy::Recompute => "recompute",
            PreemptPolicy::SwapToHost => "swap-to-host",
        }
    }
}

/// Which cached KV tokens each decode slot attends (continuous policy
/// only). Sparse policies both *read less* — the attention read set is
/// micro-tile packed, so step cost scales with the attended tokens — and
/// *hold less*: pages wholly outside the retained set leave the
/// sequence's page table every iteration, shrinking its footprint.
///
/// Token positions are approximated at page granularity. The retained set
/// is always: the first page (StreamingLLM's attention sink), every page
/// overlapping the recent window, and the unwritten tail page; the
/// heavy-hitter policy additionally keeps `ceil(heavy/page_size)` pages
/// spaced evenly across the middle — a deterministic stand-in for H2O's
/// accumulated-attention-score ranking, which a cost model cannot observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvSparsityPolicy {
    /// Every slot attends (and keeps) its full cached context.
    Dense,
    /// Sink + sliding window (StreamingLLM): attend the first page and
    /// the most recent `recent` tokens; evict everything between.
    SlidingWindow {
        /// Recent-window length in tokens (must be > 0).
        recent: usize,
    },
    /// Sink + window + heavy hitters (H2O): as the sliding window, but
    /// `heavy` tokens' worth of middle pages survive eviction and stay in
    /// the attended set.
    HeavyHitter {
        /// Recent-window length in tokens (must be > 0).
        recent: usize,
        /// Heavy-hitter budget in tokens (must be > 0).
        heavy: usize,
    },
}

impl KvSparsityPolicy {
    /// Display name used in report-policy suffixes.
    pub fn name(&self) -> &'static str {
        match self {
            KvSparsityPolicy::Dense => "dense",
            KvSparsityPolicy::SlidingWindow { .. } => "sliding-window",
            KvSparsityPolicy::HeavyHitter { .. } => "heavy-hitter",
        }
    }

    /// Whether this policy is a no-op.
    pub fn is_dense(&self) -> bool {
        matches!(self, KvSparsityPolicy::Dense)
    }

    /// KV tokens a slot with `cached` context tokens attends this step:
    /// the sink page plus the policy's retention budgets, capped by what
    /// is actually cached.
    pub fn attended(&self, cached: usize, page_size: usize) -> usize {
        let sink = page_size.min(cached);
        match *self {
            KvSparsityPolicy::Dense => cached,
            KvSparsityPolicy::SlidingWindow { recent } => cached.min(sink + recent),
            KvSparsityPolicy::HeavyHitter { recent, heavy } => cached.min(sink + recent + heavy),
        }
    }

    /// Page-table positions of a `len`-token cache this policy evicts:
    /// fully-written pages past the sink that neither overlap the recent
    /// window nor survive as heavy hitters, ascending. Empty (and
    /// unallocated) when nothing is evicted, as under [`Dense`].
    ///
    /// [`Dense`]: KvSparsityPolicy::Dense
    pub fn evict_positions(&self, len: usize, page_size: usize) -> Vec<usize> {
        let (recent, heavy) = match *self {
            KvSparsityPolicy::Dense => return Vec::new(),
            KvSparsityPolicy::SlidingWindow { recent } => (recent, 0),
            KvSparsityPolicy::HeavyHitter { recent, heavy } => (recent, heavy),
        };
        let ps = page_size;
        // Evictable universe: fully-written pages (position p covers
        // tokens [p*ps, (p+1)*ps), all written iff (p+1)*ps <= len).
        let full = len / ps;
        // First page overlapping the recent window; pages at or past it
        // are retained. The middle is positions 1..hi, strictly between
        // the sink and the window.
        let hi = ((len - recent.min(len)) / ps).min(full);
        let middle = hi.saturating_sub(1);
        // Heavy hitters: keep ceil(heavy/ps) middle pages, evenly spaced —
        // middle index j·middle/hh for j < hh, strictly increasing in j
        // because hh <= middle.
        let hh = heavy.div_ceil(ps).min(middle);
        if hh == middle {
            return Vec::new();
        }
        let mut evict = Vec::with_capacity(middle - hh);
        let mut kept = 0;
        for i in 0..middle {
            if kept < hh && i == kept * middle / hh {
                kept += 1;
            } else {
                evict.push(i + 1);
            }
        }
        evict
    }
}

/// Why [`DecodeServeConfigBuilder::build`] refused a configuration.
/// Inconsistent combinations fail here, at construction, instead of
/// panicking mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `kv_pages` and `kv_mem_fraction` were both set explicitly — the
    /// pool would have two conflicting sizes.
    KvPagesConflict,
    /// `host_pages` was set under [`PreemptPolicy::Recompute`], which
    /// never touches a host tier.
    HostPagesWithoutSwap,
    /// `kv_mem_fraction` outside (0, 1].
    InvalidMemFraction,
    /// `page_size` of zero.
    ZeroPageSize,
    /// Explicit `kv_pages` of zero.
    ZeroKvPages,
    /// Explicit `host_pages` of zero (omit it for the default tier size).
    ZeroHostPages,
    /// Continuous policy with a zero token budget.
    ZeroTokenBudget,
    /// Static policy with a zero batch bound.
    ZeroMaxBatch,
    /// Zero live-set bound.
    ZeroMaxLive,
    /// Zero JIT-cache capacity.
    ZeroCacheCapacity,
    /// Prefix caching under the static policy.
    StaticPaddedPrefixCaching,
    /// Swap preemption under the static policy.
    StaticPaddedSwap,
    /// A KV-sparsity policy under the static policy.
    StaticPaddedSparsity,
    /// A sparsity policy with a zero retention budget (`recent` or
    /// `heavy` of 0).
    InvalidSparsity,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ConfigError::KvPagesConflict => {
                "kv_pages and kv_mem_fraction are both set; the KV pool cannot \
                 have two sizes — set one"
            }
            ConfigError::HostPagesWithoutSwap => {
                "host_pages is set but preemption is recompute, which never \
                 uses a host tier; set preempt(PreemptPolicy::SwapToHost)"
            }
            ConfigError::InvalidMemFraction => "kv_mem_fraction must lie in (0, 1]",
            ConfigError::ZeroPageSize => "page_size must be at least 1 token",
            ConfigError::ZeroKvPages => "kv_pages must be at least 1 page",
            ConfigError::ZeroHostPages => {
                "host_pages must be at least 1 page (omit it for the default \
                 host tier)"
            }
            ConfigError::ZeroTokenBudget => "the continuous token_budget must be at least 1 row",
            ConfigError::ZeroMaxBatch => "the static max_batch must be at least 1 request",
            ConfigError::ZeroMaxLive => "max_live must be at least 1 request",
            ConfigError::ZeroCacheCapacity => "cache_capacity must be at least 1 entry",
            ConfigError::StaticPaddedPrefixCaching => {
                "prefix caching applies to the continuous policy only (the \
                 static rectangle reserves KV per slot, nothing is shared)"
            }
            ConfigError::StaticPaddedSwap => {
                "swap-to-host preemption applies to the continuous policy only \
                 (the static rectangle never preempts)"
            }
            ConfigError::StaticPaddedSparsity => {
                "KV sparsity applies to the continuous policy only (the static \
                 rectangle's compiled kernels span the full reservation)"
            }
            ConfigError::InvalidSparsity => {
                "sparsity retention budgets (recent, heavy) must be at least 1 \
                 token"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of one decode serving run.
///
/// Constructed exclusively through [`DecodeServeConfig::builder`], which
/// validates every combination at build time ([`ConfigError`]) — the
/// fields are private, so an inconsistent run cannot be assembled by
/// hand. [`Default`] is the OPT-1.3B / A100-80GB fp16 preset.
#[derive(Debug, Clone)]
pub struct DecodeServeConfig {
    policy: DecodePolicy,
    model: ModelConfig,
    device: DeviceSpec,
    dtype: DType,
    cache_capacity: usize,
    page_size: usize,
    kv_pages: Option<usize>,
    kv_mem_fraction: f64,
    prefill_chunk: usize,
    max_live: usize,
    prefix_caching: bool,
    preempt: PreemptPolicy,
    host_pages: Option<usize>,
    kv_sparsity: KvSparsityPolicy,
    verify_invariants: bool,
}

impl Default for DecodeServeConfig {
    /// The reference decode setup: OPT-1.3B (an actual decoder —
    /// autoregressive serving is its workload) in fp16 (LLM-serving
    /// precision: decode steps are memory-bound, so K/V streaming is
    /// first-order) on an A100, continuous batching under a 128-row
    /// budget, 16-token pages over 25% of device memory, 64-token
    /// prefill chunks, 64 live requests, recompute preemption, dense
    /// attention.
    fn default() -> Self {
        DecodeServeConfig::builder(ModelConfig::opt("1.3B"), DeviceSpec::a100_80gb())
            .build()
            .expect("default preset is valid")
    }
}

impl DecodeServeConfig {
    /// Starts building a configuration for `model` on `device`. All other
    /// knobs default to the [`Default`] preset's values; chain setters
    /// and finish with [`DecodeServeConfigBuilder::build`].
    pub fn builder(model: ModelConfig, device: DeviceSpec) -> DecodeServeConfigBuilder {
        DecodeServeConfigBuilder {
            policy: DecodePolicy::ContinuousPaddingFree { token_budget: 128 },
            model,
            device,
            dtype: DType::F16,
            cache_capacity: 256,
            page_size: 16,
            kv_pages: None,
            kv_mem_fraction: None,
            prefill_chunk: 64,
            max_live: 64,
            prefix_caching: false,
            preempt: PreemptPolicy::Recompute,
            host_pages: None,
            kv_sparsity: KvSparsityPolicy::Dense,
            verify_invariants: false,
        }
    }

    /// Batch-formation policy.
    pub fn policy(&self) -> DecodePolicy {
        self.policy
    }

    /// The model every request runs through.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Modelled device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Precision.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Shared JIT-cache bound (entries).
    pub fn cache_capacity(&self) -> usize {
        self.cache_capacity
    }

    /// Token slots per KV page.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Explicit KV pool size in pages (`None` = derived from
    /// [`Self::kv_mem_fraction`]).
    pub fn kv_pages(&self) -> Option<usize> {
        self.kv_pages
    }

    /// Fraction of device memory granted to the KV pool when no explicit
    /// page count is set.
    pub fn kv_mem_fraction(&self) -> f64 {
        self.kv_mem_fraction
    }

    /// Chunked-prefill cap (0 = unchunked whole-prompt prefills).
    pub fn prefill_chunk(&self) -> usize {
        self.prefill_chunk
    }

    /// Live-set bound (vLLM's `max_num_seqs`).
    pub fn max_live(&self) -> usize {
        self.max_live
    }

    /// Whether prompt-prefix caching is on.
    pub fn prefix_caching(&self) -> bool {
        self.prefix_caching
    }

    /// Preemption policy of the continuous runtime.
    pub fn preempt(&self) -> PreemptPolicy {
        self.preempt
    }

    /// Host staging-pool size override (`None` = twice the device pool
    /// under swap preemption; no tier under recompute).
    pub fn host_pages(&self) -> Option<usize> {
        self.host_pages
    }

    /// Per-sequence KV-sparsity policy of the continuous runtime.
    pub fn kv_sparsity(&self) -> KvSparsityPolicy {
        self.kv_sparsity
    }

    /// Whether `PagedKvCache::check_invariants` (and the prefix index's
    /// structural check) runs after every iteration.
    pub fn verify_invariants(&self) -> bool {
        self.verify_invariants
    }

    /// The KV pool geometry this configuration implies. Pools sized in
    /// pages still carry the model's per-page byte weight (the swap cost
    /// model needs it on the wire); under swap preemption the pool gains
    /// its host staging tier.
    pub fn kv_config(&self) -> KvConfig {
        let base = match self.kv_pages {
            Some(pages) => KvConfig::new(self.page_size, pages).with_page_bytes(
                self.page_size
                    * self.model.layers
                    * 2
                    * self.model.hidden
                    * self.dtype.size_bytes(),
            ),
            None => KvConfig::for_budget(
                (self.device.global_mem_bytes as f64 * self.kv_mem_fraction) as usize,
                self.page_size,
                self.model.layers,
                self.model.hidden,
                self.dtype.size_bytes(),
            ),
        };
        let host = match self.preempt {
            PreemptPolicy::Recompute => 0,
            PreemptPolicy::SwapToHost => self.host_pages.unwrap_or(2 * base.num_pages),
        };
        base.with_host_pages(host)
    }
}

/// Builder for [`DecodeServeConfig`]; see [`DecodeServeConfig::builder`].
/// Every setter is chainable; [`Self::build`] validates the combination
/// and is the only way to obtain a config.
#[derive(Debug, Clone)]
pub struct DecodeServeConfigBuilder {
    policy: DecodePolicy,
    model: ModelConfig,
    device: DeviceSpec,
    dtype: DType,
    cache_capacity: usize,
    page_size: usize,
    kv_pages: Option<usize>,
    kv_mem_fraction: Option<f64>,
    prefill_chunk: usize,
    max_live: usize,
    prefix_caching: bool,
    preempt: PreemptPolicy,
    host_pages: Option<usize>,
    kv_sparsity: KvSparsityPolicy,
    verify_invariants: bool,
}

impl DecodeServeConfigBuilder {
    /// Sets the batch-formation policy (default: continuous, 128-row
    /// token budget).
    pub fn policy(mut self, policy: DecodePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the precision (default fp16).
    pub fn dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Sets the shared JIT-cache bound in entries (default 256).
    pub fn cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = entries;
        self
    }

    /// Sets the KV page size in token slots (default 16).
    pub fn page_size(mut self, tokens: usize) -> Self {
        self.page_size = tokens;
        self
    }

    /// Sets an explicit KV pool size in pages. Mutually exclusive with
    /// [`Self::kv_mem_fraction`].
    pub fn kv_pages(mut self, pages: usize) -> Self {
        self.kv_pages = Some(pages);
        self
    }

    /// Sets the fraction of device memory granted to the KV pool
    /// (default 0.25). Mutually exclusive with [`Self::kv_pages`].
    pub fn kv_mem_fraction(mut self, fraction: f64) -> Self {
        self.kv_mem_fraction = Some(fraction);
        self
    }

    /// Sets the chunked-prefill cap in tokens; 0 means unchunked
    /// whole-prompt prefills (default 64).
    pub fn prefill_chunk(mut self, tokens: usize) -> Self {
        self.prefill_chunk = tokens;
        self
    }

    /// Sets the live-set bound (default 64).
    pub fn max_live(mut self, requests: usize) -> Self {
        self.max_live = requests;
        self
    }

    /// Enables or disables prompt-prefix caching (continuous policy
    /// only; requires the trace to carry `prompt_ids`).
    pub fn prefix_caching(mut self, on: bool) -> Self {
        self.prefix_caching = on;
        self
    }

    /// Sets the preemption policy (default recompute).
    pub fn preempt(mut self, preempt: PreemptPolicy) -> Self {
        self.preempt = preempt;
        self
    }

    /// Sets the host staging-pool size in pages (swap preemption only;
    /// the default without this call is twice the device pool).
    pub fn host_pages(mut self, pages: usize) -> Self {
        self.host_pages = Some(pages);
        self
    }

    /// Sets the per-sequence KV-sparsity policy (continuous policy only;
    /// default dense).
    pub fn kv_sparsity(mut self, policy: KvSparsityPolicy) -> Self {
        self.kv_sparsity = policy;
        self
    }

    /// Enables or disables per-iteration invariant checking.
    pub fn verify_invariants(mut self, on: bool) -> Self {
        self.verify_invariants = on;
        self
    }

    /// Validates the combination and produces the config. Every
    /// inconsistency is a [`ConfigError`] here instead of a panic
    /// mid-run.
    pub fn build(self) -> Result<DecodeServeConfig, ConfigError> {
        match self.policy {
            DecodePolicy::ContinuousPaddingFree { token_budget: 0 } => {
                return Err(ConfigError::ZeroTokenBudget);
            }
            DecodePolicy::StaticPadded { max_batch: 0 } => {
                return Err(ConfigError::ZeroMaxBatch);
            }
            DecodePolicy::StaticPadded { .. } => {
                if self.prefix_caching {
                    return Err(ConfigError::StaticPaddedPrefixCaching);
                }
                if matches!(self.preempt, PreemptPolicy::SwapToHost) {
                    return Err(ConfigError::StaticPaddedSwap);
                }
                if !self.kv_sparsity.is_dense() {
                    return Err(ConfigError::StaticPaddedSparsity);
                }
            }
            DecodePolicy::ContinuousPaddingFree { .. } => {}
        }
        if self.page_size == 0 {
            return Err(ConfigError::ZeroPageSize);
        }
        if self.cache_capacity == 0 {
            return Err(ConfigError::ZeroCacheCapacity);
        }
        if self.max_live == 0 {
            return Err(ConfigError::ZeroMaxLive);
        }
        if self.kv_pages == Some(0) {
            return Err(ConfigError::ZeroKvPages);
        }
        if self.host_pages == Some(0) {
            return Err(ConfigError::ZeroHostPages);
        }
        if self.kv_pages.is_some() && self.kv_mem_fraction.is_some() {
            return Err(ConfigError::KvPagesConflict);
        }
        if let Some(f) = self.kv_mem_fraction {
            if !(f > 0.0 && f <= 1.0) {
                return Err(ConfigError::InvalidMemFraction);
            }
        }
        if self.host_pages.is_some() && matches!(self.preempt, PreemptPolicy::Recompute) {
            return Err(ConfigError::HostPagesWithoutSwap);
        }
        match self.kv_sparsity {
            KvSparsityPolicy::Dense => {}
            KvSparsityPolicy::SlidingWindow { recent } => {
                if recent == 0 {
                    return Err(ConfigError::InvalidSparsity);
                }
            }
            KvSparsityPolicy::HeavyHitter { recent, heavy } => {
                if recent == 0 || heavy == 0 {
                    return Err(ConfigError::InvalidSparsity);
                }
            }
        }
        Ok(DecodeServeConfig {
            policy: self.policy,
            model: self.model,
            device: self.device,
            dtype: self.dtype,
            cache_capacity: self.cache_capacity,
            page_size: self.page_size,
            kv_pages: self.kv_pages,
            kv_mem_fraction: self.kv_mem_fraction.unwrap_or(0.25),
            prefill_chunk: self.prefill_chunk,
            max_live: self.max_live,
            prefix_caching: self.prefix_caching,
            preempt: self.preempt,
            host_pages: self.host_pages,
            kv_sparsity: self.kv_sparsity,
            verify_invariants: self.verify_invariants,
        })
    }
}

/// One request moving through the decode runtime.
#[derive(Debug, Clone)]
struct Seq {
    id: u64,
    arrival_s: f64,
    prompt: usize,
    /// Target output length (tokens to generate).
    target: usize,
    /// Tokens generated so far (survives preemption: recompute re-prefills
    /// `prompt + generated` and decoding continues from there).
    generated: usize,
    /// Context tokens whose KV has landed (chunked prefill progress;
    /// reset to 0 on preemption). A prefix-cache hit starts this at the
    /// matched token count — those pages are shared, not prefilled.
    prefilled: usize,
    /// Context rows owed to recompute: KV this sequence already ran
    /// through the model once, discarded at preemption, and must now
    /// re-derive. Re-prefill rows draw this debt down first, and the
    /// metrics count them as overhead rather than served work, so
    /// `tokens_per_s` stays goodput.
    rework: usize,
    /// Virtual time this request's latest token was emitted.
    last_token_s: f64,
    /// Whether the latest admission hit the prompt-prefix cache.
    prefix_hit: bool,
}

impl Seq {
    /// Cached context length once prefill completes (tokens whose KV must
    /// be held before the next token can decode).
    fn ctx(&self) -> usize {
        self.prompt + self.generated
    }

    /// True once the target output length is reached.
    fn done(&self) -> bool {
        self.generated >= self.target
    }
}

/// Prices one iteration into a ledger [`StepSample`] on the replay's one
/// engine, whose ledger is empty on entry and on return.
/// The step's charges are the shared JIT cache's selection charges, then
/// [`run_step`]'s fold of one priced layer over the model's depth;
/// [`Engine::take_ledger`] reads them and resets the ledger in one call,
/// so each step prices exactly as on a fresh engine without paying for
/// building one. `real_rows` is the number of non-padding rows
/// (selection samples the step's token occupancy, and only cache misses
/// pay the modelled Algorithm-1 search cost, as in the prefill runtime).
/// The engine charges one fused attention kernel per layer, so its
/// attention total is split prefill-vs-decode by the shape's score
/// weighting ([`StepShape::prefill_attention_fraction`]).
fn step_sample(
    eng: &mut Engine,
    cfg: &DecodeServeConfig,
    shape: &StepShape,
    real_rows: usize,
    cache: &JitCache,
) -> StepSample {
    let rows = shape.rows();
    if rows == 0 {
        return StepSample::default();
    }
    let m = &cfg.model;
    // Shared miss-cost policy with the prefill executor; the extra index
    // items are the page-table gather PIT's SRead performs over the paged
    // KV cache.
    let (jit_searches, jit_search_measured_s) = charge_shape_selection(
        eng,
        cache,
        "serve.decode_step",
        m,
        real_rows,
        rows,
        shape.decode_slots(),
    );
    run_step(eng, m, shape);
    let ledger = eng.take_ledger();
    let tally = ledger.tally;
    let prefill_frac = shape.prefill_attention_fraction(eng.framework.is_pit());
    StepSample {
        gpu_s: ledger.latency_ms() / 1e3,
        prefill_attention_s: tally.attention_s * prefill_frac,
        decode_attention_s: tally.attention_s * (1.0 - prefill_frac),
        sparse_conversion_s: tally.sparse_conversion_s,
        jit_search_s: tally.jit_search_s,
        flops_useful: tally.flops_useful,
        flops_executed: tally.flops_executed,
        jit_searches,
        jit_search_measured_s,
    }
}

/// Serves a [`DecodeTrace`] open-loop (requests admitted at their arrival
/// timestamps) through the configured decode policy on a virtual clock.
///
/// Panics if a single request can never fit in the KV pool — the pool is
/// misconfigured, not overloaded, in that case.
pub fn simulate_decode_trace(cfg: &DecodeServeConfig, trace: &DecodeTrace) -> DecodeReport {
    simulate_decode_trace_traced(cfg, trace, &TraceSink::disabled())
}

/// [`simulate_decode_trace`] with request-lifecycle tracing: every
/// admission, prefill chunk, token, preemption, swap transfer and
/// completion is recorded into `sink` on the virtual clock. When the sink
/// is enabled, the report additionally carries the per-request
/// queue/prefill/decode/stall breakdown and causal blame reduced from the
/// trace; a disabled sink makes this identical to the untraced entry
/// point (each record is one branch).
pub fn simulate_decode_trace_traced(
    cfg: &DecodeServeConfig,
    trace: &DecodeTrace,
    sink: &TraceSink,
) -> DecodeReport {
    simulate_decode_trace_observed(cfg, trace, sink, 0, None).0
}

/// [`simulate_decode_trace_traced`] with the full observer set. It
/// captures the `exemplar_k` worst request timelines per tail metric
/// (TTFT, max ITL, e2e) — buffered outside the sink, so the tail is
/// observable even with tracing disabled or head-sampled; `0` captures
/// nothing — and publishes live metrics into `hub`, if given: lifecycle
/// events, per-step ledger charges and KV occupancy at step granularity,
/// so a concurrently attached [`pit_trace::ScrapeServer`] observes the
/// run mid-flight.
///
/// The hub is strictly write-only from the replay's point of view:
/// nothing the simulation computes reads hub state, so attaching a hub
/// (even one being hammered by scrapers on other threads) leaves the
/// returned report byte-identical to a hub-free run.
pub fn simulate_decode_trace_observed(
    cfg: &DecodeServeConfig,
    trace: &DecodeTrace,
    sink: &TraceSink,
    exemplar_k: usize,
    hub: Option<&MetricsHub>,
) -> (DecodeReport, ExemplarSet) {
    let cache = JitCache::with_capacity(cfg.cache_capacity.max(1));
    let mut kv = PagedKvCache::new(cfg.kv_config());
    let mut metrics = DecodeMetrics::observed_by(hub);
    let mut waiting: VecDeque<Seq> = trace
        .prompt_lens
        .iter()
        .zip(&trace.output_lens)
        .zip(&trace.arrival_s)
        .enumerate()
        .map(|(i, ((&prompt, &target), &arrival_s))| Seq {
            id: i as u64,
            arrival_s,
            prompt,
            target: target.max(1),
            generated: 0,
            prefilled: 0,
            rework: 0,
            last_token_s: arrival_s,
            prefix_hit: false,
        })
        .collect();
    let mut rec = Recorder::new(sink, exemplar_k, hub);

    let swap = matches!(cfg.preempt, PreemptPolicy::SwapToHost);
    let mut name = cfg.policy.name().to_string();
    match cfg.policy {
        DecodePolicy::ContinuousPaddingFree { token_budget } => {
            if cfg.prefix_caching {
                assert_eq!(
                    trace.prompt_ids.len(),
                    trace.len(),
                    "prefix caching needs prompt token ids on every request \
                     (build the trace with SharedPrefixSpec::decode_trace)"
                );
            }
            name = match (cfg.prefix_caching, swap) {
                (false, false) => name,
                (true, false) => "continuous-prefix-cached".to_string(),
                (false, true) => "continuous-swap-to-host".to_string(),
                (true, true) => "continuous-prefix-cached-swap".to_string(),
            };
            if !cfg.kv_sparsity.is_dense() {
                name.push('+');
                name.push_str(cfg.kv_sparsity.name());
            }
            run_continuous(
                cfg,
                token_budget,
                &mut waiting,
                &trace.prompt_ids,
                &mut kv,
                &cache,
                &mut metrics,
                &mut rec,
            );
        }
        // The builder rejected prefix caching, swap preemption and KV
        // sparsity for this policy, so no combination checks remain here.
        DecodePolicy::StaticPadded { max_batch } => {
            run_static(
                cfg,
                max_batch,
                &mut waiting,
                &mut kv,
                &cache,
                &mut metrics,
                &mut rec,
            );
        }
    }
    if cfg.verify_invariants {
        kv.check_invariants().expect("kv invariants at end of run");
    }
    if sink.is_enabled() {
        // One pass of the lifecycle fold yields both trace-derived blocks.
        metrics.set_blame_spans(&blame_spans(&sink.snapshot()));
    }
    if let Some(h) = hub {
        h.finish();
    }
    (
        metrics.report(&name, kv.stats(), CacheStats::of(&cache)),
        rec.finish(),
    )
}

/// Forwards lifecycle events to the trace sink while keeping each live
/// lane's full timeline for the tail-exemplar reservoir. The timelines
/// are buffered independently of the sink, so exemplars survive a
/// disabled or head-sampled sink; with `k == 0` every `record` is a
/// plain forward and the loop costs one extra branch.
struct Recorder<'a> {
    sink: &'a TraceSink,
    reservoir: ExemplarReservoir,
    timelines: BTreeMap<u64, Vec<TraceRecord>>,
    ord: u64,
    /// Live metrics plane, if attached. Strictly write-only: the loop
    /// never reads it, so replays stay byte-identical with it attached.
    hub: Option<&'a MetricsHub>,
}

impl<'a> Recorder<'a> {
    fn new(sink: &'a TraceSink, exemplar_k: usize, hub: Option<&'a MetricsHub>) -> Self {
        Recorder {
            sink,
            reservoir: ExemplarReservoir::new(exemplar_k),
            timelines: BTreeMap::new(),
            ord: 0,
            hub,
        }
    }

    fn record(&mut self, t_s: f64, lane: u64, event: TraceEvent) {
        if let Some(h) = self.hub {
            h.on_record(t_s, lane, &event);
        }
        if self.reservoir.is_enabled() && lane < RESERVED_LANES {
            let finished = matches!(event, TraceEvent::Finished);
            self.timelines.entry(lane).or_default().push(TraceRecord {
                ord: self.ord,
                t_s,
                lane,
                event: event.clone(),
            });
            self.ord += 1;
            if finished {
                let timeline = self.timelines.remove(&lane).expect("pushed above");
                self.reservoir.offer(lane, &timeline);
            }
        }
        self.sink.record(t_s, lane, event);
    }

    fn finish(self) -> ExemplarSet {
        self.reservoir.finish()
    }
}

/// Consecutive equal inter-token gaps, recorded as one run: the decode
/// slots of a step mostly share one gap, the step's duration. A run ends
/// wherever the gap's bits change, so the sketch sees the same samples in
/// the same order as recording each token's gap on its own.
#[derive(Default)]
struct ItlRun {
    gap_s: f64,
    n: u64,
}

impl ItlRun {
    fn push(&mut self, gap_s: f64, metrics: &mut DecodeMetrics) {
        if self.n > 0 && gap_s.to_bits() != self.gap_s.to_bits() {
            self.flush(metrics);
        }
        self.gap_s = gap_s;
        self.n += 1;
    }

    fn flush(&mut self, metrics: &mut DecodeMetrics) {
        metrics.record_itl(self.gap_s, self.n);
        self.n = 0;
    }
}

/// The continuous-batching loop with chunked prefill:
///
/// 1. admit arrived requests into the prefilling queue (KV admission
///    signal), matching each prompt against the prefix index first when
///    prefix caching is on — matched pages are shared, not re-prefilled;
/// 2. reserve decode headroom, evicting prefix-index LRU leaves and then
///    preempting latest-arrival requests (partial prefills first —
///    cheapest to recompute) when pages run out; under
///    [`PreemptPolicy::SwapToHost`] a victim's exclusively-held pages
///    move to the host tier instead (eviction DMA gates the reclaiming
///    step), with per-victim recompute fallback;
/// 3. plan this iteration's prefill chunks FIFO under the token budget
///    and the remaining free pages;
/// 4. run one mixed step; every decode slot emits a token, every chunk
///    advances its prompt, completed prefills publish their whole-page
///    prompt pages to the index, emit their first token and join the
///    decode set.
///
/// Swapped sequences wait FIFO for free device frames (ahead of new
/// arrivals), then their restore transfer streams on the h2d link while
/// the scheduler keeps batching — they rejoin only when the transfer
/// lands, context intact, nothing re-prefilled.
///
/// Every step is priced on one engine built when the replay starts
/// ([`step_sample`] takes its ledger after each step), so no step pays
/// for building one.
#[allow(clippy::too_many_arguments)]
fn run_continuous(
    cfg: &DecodeServeConfig,
    token_budget: usize,
    waiting: &mut VecDeque<Seq>,
    prompts: &[Vec<u32>],
    kv: &mut PagedKvCache,
    cache: &JitCache,
    metrics: &mut DecodeMetrics,
    rec: &mut Recorder,
) {
    let token_budget = token_budget.max(1);
    let page = kv.config().page_size;
    let chunk_cap = if cfg.prefill_chunk == 0 {
        usize::MAX
    } else {
        cfg.prefill_chunk
    };
    let mut index = cfg.prefix_caching.then(|| RadixPrefixIndex::new(page));
    let mut swap = matches!(cfg.preempt, PreemptPolicy::SwapToHost)
        .then(|| SwapEngine::new(&cfg.device, kv.config().page_bytes.max(1)));
    let mut prefilling: VecDeque<Seq> = VecDeque::new();
    let mut running: Vec<Seq> = Vec::new();
    // Swapped-out victims waiting for device frames (`bool` = was it
    // decoding, i.e. does it rejoin `running` rather than `prefilling`),
    // and restores whose transfer is still on the wire.
    let mut swapped: VecDeque<(Seq, bool)> = VecDeque::new();
    let mut restoring: RestoreQueue<(Seq, bool)> = RestoreQueue::new();
    let mut clock_s = 0.0_f64;
    // Every step of the replay is priced on this one engine.
    let mut eng = Engine::new(cfg.device.clone(), cfg.dtype, cfg.policy.framework());

    while !waiting.is_empty()
        || !prefilling.is_empty()
        || !running.is_empty()
        || !swapped.is_empty()
        || !restoring.is_empty()
    {
        // Deferral notebook: requests the scheduler looked at this
        // iteration and could not advance, with the typed cause. Flushed
        // as `Waiting` events at the step boundary (the instant the wait
        // they explain ends); an iteration that re-plans without
        // stepping drops them and re-observes next time around.
        let mut deferrals: Vec<(u64, WaitCause, f64)> = Vec::new();

        // Restore-on-readmission: swapped sequences have priority over
        // new arrivals for free frames (their context is paid for — the
        // sooner it is back, the less the host pool holds). One spare
        // frame beyond the swapped pages lets the restored sequence take
        // at least one decode step before any further preemption.
        // Initiation runs BEFORE the idle clock jump so that a drained
        // batch starts its restores on the idle link immediately instead
        // of deferring them behind an unrelated future arrival.
        if let Some(eng) = swap.as_mut() {
            while let Some((head, _)) = swapped.front() {
                if running.len() + prefilling.len() + restoring.len() >= cfg.max_live.max(1) {
                    deferrals.push((head.id, WaitCause::MaxLiveCap, head.arrival_s));
                    break;
                }
                let need = kv.seq_host_pages(head.id) + 1;
                assert!(
                    need <= kv.config().num_pages,
                    "KV pool ({} pages of {page} tokens) cannot hold one swapped \
                     context plus headroom; enlarge kv_pages/kv_mem_fraction",
                    kv.config().num_pages
                );
                if kv.free_pages() < need {
                    let want = need - kv.free_pages();
                    evict_index_pages(kv, index.as_mut(), want);
                }
                if kv.free_pages() < need {
                    deferrals.push((head.id, WaitCause::KvPoolExhausted, head.arrival_s));
                    break;
                }
                let (s, was_decoding) = swapped.pop_front().expect("front checked");
                let moved = kv.swap_in(s.id).expect("frames checked above");
                let done = eng.swap_in(clock_s, moved);
                metrics.record_restore(done - clock_s);
                rec.record(
                    done,
                    s.id,
                    TraceEvent::SwapIn {
                        pages: moved,
                        initiated_s: clock_s,
                        link_busy_until_s: eng.h2d_busy_until_s(),
                    },
                );
                restoring.push((s, was_decoding), done);
            }
        }

        if prefilling.is_empty() && running.is_empty() {
            let arrival = waiting.front().map_or(f64::INFINITY, |w| w.arrival_s);
            let restore = restoring.next_ready_s().unwrap_or(f64::INFINITY);
            let next = arrival.min(restore);
            if next.is_finite() && next > clock_s {
                // Ledger attribution: waiting out an in-flight restore is
                // an h2d stall; waiting for a future arrival is idle.
                if restore <= arrival {
                    metrics.charge(|l| l.charge_h2d_stall(next - clock_s));
                } else {
                    metrics.charge(|l| l.charge_idle(next - clock_s));
                }
                clock_s = next;
            }
        }

        // Restores whose transfer has landed rejoin the batch: decoding
        // victims slot back into `running` in arrival order, mid-prefill
        // victims resume at the head of the prefill queue (they are the
        // oldest work there).
        for (s, was_decoding) in restoring.pop_ready(clock_s) {
            if was_decoding {
                let pos = running
                    .iter()
                    .position(|r| r.arrival_s > s.arrival_s)
                    .unwrap_or(running.len());
                running.insert(pos, s);
            } else {
                prefilling.push_front(s);
            }
        }

        // 1a. KV sparsity: compact every decoding sequence's cache to its
        // policy-retained page set before admission, so the freed frames
        // are in the admission gate's supply. Running sequences are fully
        // device-resident (restores rejoin only after their transfer
        // lands), and only fully-written interior pages are selected, so
        // the release cannot fail. Shared or prefix-pinned pages leave
        // this sequence's table but stay resident for their other
        // holders — `freed` counts frames actually returned to the pool.
        if !cfg.kv_sparsity.is_dense() {
            for s in &running {
                let len = kv.seq_tokens(s.id).expect("running seq holds pages");
                let evict = cfg.kv_sparsity.evict_positions(len, page);
                if evict.is_empty() {
                    continue;
                }
                let pages: Vec<pit_kv::PageId> = {
                    let table = kv.seq_pages(s.id).expect("running seq holds pages");
                    evict.iter().map(|&pos| table[pos]).collect()
                };
                let freed = kv
                    .release_seq_pages(s.id, &pages)
                    .expect("retained-set eviction picks legal pages");
                metrics.record_sparsity_eviction(pages.len(), freed);
                rec.record(
                    clock_s,
                    s.id,
                    TraceEvent::SparsityEvict { pages: pages.len() },
                );
            }
        }

        // 1. Admission: FIFO prefix of arrived requests, capped by the
        // live-set bound; the KV pool's free-page signal (first chunk +
        // one decode slot) is the other admission gate. The prefix index
        // is the marginal page supply: its cold leaves are evicted before
        // an admission is refused.
        while let Some(w) = waiting.front() {
            if w.arrival_s > clock_s {
                break;
            }
            if running.len() + prefilling.len() + restoring.len() >= cfg.max_live.max(1) {
                deferrals.push((w.id, WaitCause::MaxLiveCap, w.arrival_s));
                break;
            }
            let first = w.ctx().max(1).min(chunk_cap);
            if !kv.can_admit(first + 1) {
                let want = kv
                    .config()
                    .pages_for(first + 1)
                    .saturating_sub(kv.free_pages());
                evict_index_pages(kv, index.as_mut(), want);
            }
            if !kv.can_admit(first + 1) {
                assert!(
                    !(prefilling.is_empty()
                        && running.is_empty()
                        && swapped.is_empty()
                        && restoring.is_empty()
                        && index.as_ref().is_none_or(RadixPrefixIndex::is_empty)),
                    "KV pool ({} pages of {page} tokens) cannot fit a single \
                     {first}-token prefill chunk; enlarge kv_pages/kv_mem_fraction",
                    kv.config().num_pages
                );
                deferrals.push((w.id, WaitCause::KvPoolExhausted, w.arrival_s));
                break;
            }
            let mut w = waiting.pop_front().expect("front checked");
            rec.record(
                clock_s,
                w.id,
                TraceEvent::Admitted {
                    arrival_s: w.arrival_s,
                },
            );
            if let Some(ix) = index.as_mut() {
                // Match the prompt (never past its second-to-last token —
                // even a fully cached prompt must prefill something to
                // produce first-token logits), page-granularly.
                let m = ix.match_prefix(&prompts[w.id as usize]);
                let matched = m.tokens.min(w.prompt.saturating_sub(1) / page * page);
                if matched > 0 {
                    kv.alloc_shared(w.id, &m.pages[..matched / page], matched)
                        .expect("matched pages are live in the pool");
                    w.prefilled = matched;
                    // Cache-served rows are never re-run through the
                    // model, so they come off any recompute debt.
                    w.rework = w.rework.saturating_sub(matched);
                    w.prefix_hit = true;
                } else {
                    w.prefix_hit = false;
                }
                metrics.record_prefix_admission(matched, w.prefix_hit);
                if w.prefix_hit {
                    rec.record(
                        clock_s,
                        w.id,
                        TraceEvent::PrefixHit {
                            pages: matched / page,
                            tokens: matched,
                        },
                    );
                }
            }
            prefilling.push_back(w);
        }

        // 2. Decode headroom: every decode slot continuing past this step
        // whose context sits on a page boundary needs one fresh page.
        // Evict prefix-index leaves, then preempt (recompute on
        // re-admission) until the pool can honour the step: partial
        // prefills first, then the latest-arrival decoding request —
        // cached-but-cold prefixes are always cheaper to give up than
        // live progress.
        let decode_headroom = loop {
            // Page-boundary test on the *cached* length (what the pool
            // holds after sparsity eviction), not the logical context —
            // eviction shrinks the cache page-aligned, so the cadence is
            // the same, but the cached length is what `extend` sees.
            let needed = running
                .iter()
                .filter(|s| {
                    !will_finish(s)
                        && kv
                            .seq_tokens(s.id)
                            .expect("running seq holds pages")
                            .is_multiple_of(page)
                })
                .count();
            if needed <= kv.free_pages() {
                break needed;
            }
            if evict_index_pages(kv, index.as_mut(), needed - kv.free_pages()) {
                continue;
            }
            if let Some(pos) = (0..prefilling.len())
                .rev()
                .find(|&i| prefilling[i].prefilled > 0)
            {
                let victim = prefilling.remove(pos).expect("position found");
                preempt_victim(
                    victim,
                    false,
                    kv,
                    waiting,
                    &mut swapped,
                    swap.as_mut(),
                    metrics,
                    rec,
                    &mut clock_s,
                );
            } else if let Some(victim) = running.pop() {
                preempt_victim(
                    victim,
                    true,
                    kv,
                    waiting,
                    &mut swapped,
                    swap.as_mut(),
                    metrics,
                    rec,
                    &mut clock_s,
                );
            } else {
                unreachable!("headroom is only needed by running requests");
            }
        };

        // 3. Chunk planning: head-of-line prefills take the budget left
        // after the committed decode slots, page-checked against the free
        // pages not reserved as decode headroom. A chunk that completes a
        // prompt also reserves the page its first generated token may
        // need. Chunks shrink to what the pages allow; the head of the
        // queue stalls rather than being overtaken (FIFO fairness).
        let mut virtual_free = kv.free_pages() - decode_headroom;
        let mut rows = running.len();
        let mut planned: Vec<usize> = vec![0; prefilling.len()];
        for (i, s) in prefilling.iter().enumerate() {
            if rows >= token_budget && !(running.is_empty() && i == 0) {
                deferrals.push((s.id, WaitCause::TokenBudgetFull, s.arrival_s));
                break;
            }
            let remaining = s.ctx().max(1) - s.prefilled;
            let budget_room = if running.is_empty() && i == 0 {
                // Never stall the whole system on a budget smaller than
                // one chunk: an oversized head chunk runs alone.
                remaining.min(chunk_cap)
            } else {
                remaining.min(chunk_cap).min(token_budget - rows)
            };
            let mut c = budget_room;
            let held = kv.config().pages_for(s.prefilled);
            while c > 0 {
                let completes = c == remaining;
                let carry = usize::from(completes && s.generated + 1 < s.target);
                let need = kv.config().pages_for(s.prefilled + c + carry) - held;
                if need <= virtual_free {
                    let taken = if s.prefilled == 0 {
                        kv.alloc(s.id, c)
                    } else {
                        kv.extend(s.id, c)
                    }
                    .expect("planned within free pages");
                    debug_assert!(taken <= need);
                    virtual_free -= need; // keeps the carry page reserved
                    planned[i] = c;
                    rows += c;
                    break;
                }
                // Shrink to the largest chunk the free pages cover.
                let fits = ((held + virtual_free) * page).saturating_sub(s.prefilled);
                c = fits.min(c - 1);
            }
            if planned[i] == 0 {
                // Head-of-line stall: wait for pages, keep FIFO. The head
                // itself is starved of frames; anything behind it is
                // blocked by the head, not by the pool.
                deferrals.push((
                    s.id,
                    if i == 0 {
                        WaitCause::KvPoolExhausted
                    } else {
                        WaitCause::HeadOfLinePrefill
                    },
                    s.arrival_s,
                ));
                break;
            }
        }

        // Stalled with no decode work: reclaim prefix-cache pages, then
        // free a later partial prefill so the head can make progress next
        // iteration. With restores in flight the frames are merely in
        // transit — jump to the transfer's completion instead. Waiting on
        // *time* (a future arrival, an in-flight restore) is the only
        // reason to idle; anything else blocked here is blocked on
        // frames and must reclaim some, down to demoting a swapped
        // victim whose still-shared device pages hold the pool open —
        // otherwise a run left with only swapped sequences and too few
        // free frames to restore would spin forever.
        if running.is_empty() && rows == 0 {
            // Deferring to the top-of-loop wake-up is only sound when
            // that jump actually advances the clock: a *future* arrival
            // qualifies, but an in-flight restore does not if the head
            // of `waiting` already arrived — min(arrival, restore) then
            // clamps to the past arrival and the loop would spin. That
            // case falls through to the explicit restore-completion jump
            // below instead.
            let future_arrival = waiting.front().is_some_and(|w| w.arrival_s > clock_s);
            if prefilling.is_empty() && future_arrival {
                continue; // idle: next loop jumps to the next wake-up
            }
            if evict_index_pages(kv, index.as_mut(), 1) {
                continue;
            }
            if let Some(pos) = (1..prefilling.len())
                .rev()
                .find(|&i| prefilling[i].prefilled > 0)
            {
                let victim = prefilling.remove(pos).expect("position found");
                preempt_victim(
                    victim,
                    false,
                    kv,
                    waiting,
                    &mut swapped,
                    swap.as_mut(),
                    metrics,
                    rec,
                    &mut clock_s,
                );
                continue;
            }
            if let Some(ready) = restoring.next_ready_s() {
                if ready > clock_s {
                    metrics.charge(|l| l.charge_h2d_stall(ready - clock_s));
                    clock_s = ready;
                    // The whole scheduler waited out the transfer; pin
                    // the wait on the blocked head — a stalled prefill,
                    // or an arrived request the pool kept out.
                    let head = prefilling.front().map(|s| (s.id, s.arrival_s)).or_else(|| {
                        waiting
                            .front()
                            .filter(|w| w.arrival_s <= clock_s)
                            .map(|w| (w.id, w.arrival_s))
                    });
                    if let Some((lane, since_s)) = head {
                        rec.record(
                            clock_s,
                            lane,
                            TraceEvent::Waiting {
                                cause: WaitCause::RestoreInFlight,
                                since_s,
                            },
                        );
                    }
                }
                continue;
            }
            if let Some((victim, was_decoding)) = swapped.pop_back() {
                // Last resort: demote the youngest swapped victim to
                // recompute so its host pages stop holding the books
                // open (its shared device pages free with it). Its
                // preserved context will be re-prefilled after all, so
                // the savings recorded at swap time are handed back.
                let preserved = host_written_tokens(kv, victim.id);
                metrics.record_swap_demotion(preserved);
                rec.record(
                    clock_s,
                    victim.id,
                    TraceEvent::Preempted {
                        policy: "swap-demotion",
                    },
                );
                preempt_to_waiting(victim, was_decoding, kv, waiting);
                continue;
            }
            panic!(
                "KV pool ({} pages of {page} tokens) cannot fit one prefill chunk; \
                 enlarge kv_pages/kv_mem_fraction",
                kv.config().num_pages
            );
        }

        // 4. One mixed iteration: padding-free, so processed == real
        // rows. Each decode slot carries (attended, cached): under a
        // sparse policy the attention read set is the retained pages
        // only, micro-tile packed by the engine, so the step's cost
        // scales with attended rather than cached tokens.
        let shape = StepShape {
            prefill_lens: Vec::new(),
            chunks: prefilling
                .iter()
                .zip(&planned)
                .filter(|&(_, &c)| c > 0)
                .map(|(s, &c)| (c, s.prefilled + c))
                .collect(),
            decode: running
                .iter()
                .map(|s| {
                    let cached = kv.seq_tokens(s.id).expect("running seq holds pages");
                    DecodeSlot {
                        attended: cfg.kv_sparsity.attended(cached, page),
                        cached,
                    }
                })
                .collect(),
        };
        if cfg.verify_invariants {
            // The ISSUE-level safety property of tiering: a decode step
            // must never read KV that currently lives across the link.
            for s in &running {
                assert_eq!(
                    kv.seq_resident(s.id),
                    Some(true),
                    "decode step would read a host-resident page of seq {}",
                    s.id
                );
            }
        }
        let sample = step_sample(&mut eng, cfg, &shape, shape.rows(), cache);
        let gpu_s = sample.gpu_s;
        clock_s += gpu_s;
        metrics.charge(|l| l.charge_step(&sample));
        metrics.record_step(
            shape.chunk_tokens(),
            shape.decode_slots(),
            shape.rows(),
            gpu_s,
            kv.occupancy(),
            kv.fragmentation(),
        );
        rec.record(
            clock_s,
            DEVICE_LANE,
            TraceEvent::Step {
                prefill_rows: shape.chunk_tokens(),
                decode_slots: shape.decode_slots(),
                gpu_s,
            },
        );
        // The waits observed while planning this step end at its boundary:
        // flush them here so the gap each one explains telescopes exactly
        // into the blame tiling.
        for (lane, cause, since_s) in deferrals.drain(..) {
            rec.record(clock_s, lane, TraceEvent::Waiting { cause, since_s });
        }
        // Prefill rows re-deriving KV discarded at a recompute
        // preemption pay their debt here: they cost GPU time and count
        // in `prefill_tokens`, but not in the served-token goodput.
        let rework_rows: usize = prefilling
            .iter_mut()
            .zip(&planned)
            .map(|(s, &c)| {
                let re = c.min(s.rework);
                s.rework -= re;
                re
            })
            .sum();
        metrics.record_recompute_rework(rework_rows);
        metrics.record_attention(shape.attended_tokens(), shape.cached_tokens());
        if swap.is_some() {
            metrics.record_host_occupancy(kv.host_occupancy());
        }

        // Decode slots each emitted one token.
        let mut itl = ItlRun::default();
        let mut still_running: Vec<Seq> = Vec::with_capacity(running.len() + prefilling.len());
        for (slot, mut s) in shape.decode.iter().zip(running.drain(..)) {
            itl.push(clock_s - s.last_token_s, metrics);
            rec.record(
                clock_s,
                s.id,
                TraceEvent::DecodeStep {
                    attended: slot.attended,
                    cached: slot.cached,
                },
            );
            s.generated += 1;
            s.last_token_s = clock_s;
            if s.done() {
                kv.free(s.id).expect("completed request held pages");
                metrics.record_e2e(clock_s - s.arrival_s);
                rec.record(clock_s, s.id, TraceEvent::Finished);
            } else {
                kv.extend(s.id, 1).expect("headroom reserved before step");
                still_running.push(s);
            }
        }
        // Chunks landed; completed prefills publish their whole-page
        // prompt pages to the prefix index (before any free — published
        // pages outlive the request via the index's retains), emit their
        // first token and join the decode set (in FIFO order, after the
        // older survivors).
        let mut still_prefilling: VecDeque<Seq> = VecDeque::with_capacity(prefilling.len());
        for (mut s, c) in prefilling.drain(..).zip(planned) {
            if c > 0 {
                rec.record(clock_s, s.id, TraceEvent::PrefillChunk { tokens: c });
            }
            s.prefilled += c;
            if s.prefilled < s.ctx().max(1) {
                still_prefilling.push_back(s);
                continue;
            }
            if let Some(ix) = index.as_mut() {
                let full = s.prompt / page;
                if full > 0 {
                    let pages =
                        kv.seq_pages(s.id).expect("prefilled seq holds pages")[..full].to_vec();
                    let ids = &prompts[s.id as usize];
                    let adopted = ix.insert(&ids[..full * page], &pages);
                    if !adopted.is_empty() {
                        kv.retain_pages(&adopted).expect("published pages are live");
                    }
                }
            }
            if s.generated == 0 {
                metrics.record_ttft(clock_s - s.arrival_s, s.prefix_hit);
            } else {
                // Re-admitted after preemption: the gap includes requeue
                // and recompute — the honest preemption penalty.
                itl.push(clock_s - s.last_token_s, metrics);
            }
            rec.record(clock_s, s.id, TraceEvent::FirstToken);
            s.generated += 1;
            s.last_token_s = clock_s;
            if s.done() {
                kv.free(s.id).expect("completed request held pages");
                metrics.record_e2e(clock_s - s.arrival_s);
                rec.record(clock_s, s.id, TraceEvent::Finished);
            } else {
                kv.extend(s.id, 1).expect("carry page reserved at planning");
                still_running.push(s);
            }
        }
        itl.flush(metrics);
        running = still_running;
        prefilling = still_prefilling;

        if cfg.verify_invariants {
            kv.check_invariants()
                .expect("kv invariants after iteration");
            if let Some(ix) = index.as_ref() {
                ix.check_invariants()
                    .expect("prefix invariants after iteration");
            }
        }
    }

    // End of run: snapshot the transfer counters and the index's, then
    // release the index's page pins so the pool drains leak-free.
    if let Some(eng) = swap {
        metrics.set_swap(eng.stats());
    }
    if let Some(mut ix) = index {
        metrics.set_prefix(ix.stats());
        let held = ix.drain_all();
        if !held.is_empty() {
            kv.release_pages(&held).expect("index pages were retained");
        }
    }
}

/// Releases prefix-index LRU leaves until at least `want` pages came back
/// to the free list (pages still shared with live sequences only drop the
/// index's pin). Returns whether any page was physically freed.
fn evict_index_pages(
    kv: &mut PagedKvCache,
    index: Option<&mut RadixPrefixIndex>,
    want: usize,
) -> bool {
    let Some(ix) = index else {
        return false;
    };
    let want = want.max(1);
    let mut freed = 0usize;
    while freed < want && !ix.is_empty() {
        let evicted = ix.evict_lru(want - freed);
        if evicted.is_empty() {
            break;
        }
        let round = kv
            .release_pages(&evicted)
            .expect("index pages were retained");
        if round == 0 {
            // This round's leaves are all still referenced by live
            // sequences — dropping more pins frees nothing now and would
            // only wipe the hot cache; stop and let the caller preempt.
            break;
        }
        freed += round;
    }
    freed > 0
}

/// Whether this step's token is the request's last (no KV growth needed).
fn will_finish(s: &Seq) -> bool {
    s.generated + 1 >= s.target
}

/// Written token slots on a live sequence's host-resident pages — the
/// preserved context a demotion hands back to the re-prefill path.
fn host_written_tokens(kv: &PagedKvCache, seq: u64) -> usize {
    kv.seq_pages(seq).map_or(0, |pages| {
        pages
            .iter()
            .filter(|&&p| kv.page_location(p) == pit_kv::PageLocation::Host)
            .map(|&p| kv.page_written(p))
            .sum()
    })
}

/// The recompute-preemption protocol: frees the victim's pages, resets its
/// chunked-prefill progress (re-admission re-prefills `prompt + generated`
/// from scratch) and returns it to the head of the waiting queue so
/// earlier arrivals re-admit first. Every context row the system had
/// already run through the model — the full context for a decoding
/// victim, the prefill progress otherwise — becomes rework debt, so the
/// re-derivation is metered as overhead rather than served work.
fn preempt_to_waiting(
    mut victim: Seq,
    was_decoding: bool,
    kv: &mut PagedKvCache,
    waiting: &mut VecDeque<Seq>,
) {
    kv.preempt(victim.id).expect("victim held pages");
    victim.rework += if was_decoding {
        // The final re-prefill row doubles as the next decode step — its
        // logits emit a fresh token — so it stays served work.
        victim.ctx().saturating_sub(1)
    } else {
        victim.prefilled
    };
    victim.prefilled = 0;
    waiting.push_front(victim);
}

/// Preempts one victim under the configured policy. With a swap engine,
/// its exclusively-held pages move to the host tier (decode-adjacent
/// first; shared and prefix-pinned pages stay for their other holders) —
/// the eviction DMA's completion gates the virtual clock because the
/// freed frames are rewritten by the very step this preemption makes
/// room for. A victim with nothing swappable, or one the host pool
/// cannot hold, falls back to recompute.
#[allow(clippy::too_many_arguments)]
fn preempt_victim(
    victim: Seq,
    was_decoding: bool,
    kv: &mut PagedKvCache,
    waiting: &mut VecDeque<Seq>,
    swapped: &mut VecDeque<(Seq, bool)>,
    swap: Option<&mut SwapEngine>,
    metrics: &mut DecodeMetrics,
    rec: &mut Recorder,
    clock_s: &mut f64,
) {
    if let Some(eng) = swap {
        let descs: Vec<PageDesc> = kv
            .seq_pages(victim.id)
            .expect("victim held pages")
            .iter()
            .map(|&p| PageDesc {
                page: p,
                refs: kv.page_refs(p),
                ext_refs: kv.page_ext_refs(p),
            })
            .collect();
        let plan = plan_swap_out(&descs);
        if !plan.is_empty() && plan.len() <= kv.host_free_pages() {
            // Savings = written slots on the pages actually moved: the KV
            // recompute would have to re-derive. Shared prefix pages stay
            // resident either way, so they are not counted.
            let saved: usize = plan.iter().map(|&p| kv.page_written(p)).sum();
            let initiated_s = *clock_s;
            kv.swap_out(victim.id, &plan).expect("plan is legal");
            *clock_s = eng.swap_out(*clock_s, plan.len());
            // The eviction DMA gates the reclaiming step: the clock
            // advance is a d2h stall on the ledger.
            metrics.charge(|l| l.charge_d2h_stall(*clock_s - initiated_s));
            metrics.record_swap_preempt(saved);
            rec.record(
                initiated_s,
                victim.id,
                TraceEvent::Preempted {
                    policy: "swap-to-host",
                },
            );
            rec.record(
                *clock_s,
                victim.id,
                TraceEvent::SwapOut {
                    pages: plan.len(),
                    initiated_s,
                    link_busy_until_s: eng.d2h_busy_until_s(),
                },
            );
            swapped.push_back((victim, was_decoding));
            return;
        }
        metrics.record_swap_fallback();
        rec.record(
            *clock_s,
            victim.id,
            TraceEvent::Preempted {
                policy: "swap-fallback",
            },
        );
    } else {
        rec.record(
            *clock_s,
            victim.id,
            TraceEvent::Preempted {
                policy: "recompute",
            },
        );
    }
    preempt_to_waiting(victim, was_decoding, kv, waiting);
}

/// The static padded loop: batch once, reserve worst-case KV, prefill the
/// rectangle, decode until the longest output completes. Like
/// [`run_continuous`], it prices every step on one engine.
fn run_static(
    cfg: &DecodeServeConfig,
    max_batch: usize,
    waiting: &mut VecDeque<Seq>,
    kv: &mut PagedKvCache,
    cache: &JitCache,
    metrics: &mut DecodeMetrics,
    rec: &mut Recorder,
) {
    let max_batch = max_batch.max(1);
    let mut clock_s = 0.0_f64;
    // Every step of the replay is priced on this one engine.
    let mut eng = Engine::new(cfg.device.clone(), cfg.dtype, cfg.policy.framework());

    while !waiting.is_empty() {
        let arrival = waiting.front().expect("non-empty").arrival_s;
        if arrival > clock_s {
            metrics.charge(|l| l.charge_idle(arrival - clock_s));
            clock_s = arrival;
        }
        let mut batch: Vec<Seq> = Vec::new();
        while batch.len() < max_batch {
            match waiting.front() {
                Some(w) if w.arrival_s <= clock_s => {
                    let w = waiting.pop_front().expect("front checked");
                    rec.record(
                        clock_s,
                        w.id,
                        TraceEvent::Admitted {
                            arrival_s: w.arrival_s,
                        },
                    );
                    batch.push(w)
                }
                _ => break,
            }
        }

        // Worst-case contiguous reservation per slot: max prompt + max
        // output. If the pool cannot hold the whole batch, shrink it from
        // the back (those requests return to the queue head).
        loop {
            let max_p = batch
                .iter()
                .map(|s| s.prompt)
                .max()
                .expect("batch non-empty");
            let max_o = batch
                .iter()
                .map(|s| s.target)
                .max()
                .expect("batch non-empty");
            let mut failed_at = None;
            for (i, s) in batch.iter().enumerate() {
                if kv.alloc_reserved(s.id, s.prompt, max_p + max_o).is_err() {
                    failed_at = Some(i);
                    break;
                }
            }
            match failed_at {
                None => break,
                Some(i) => {
                    for s in &batch[..i] {
                        kv.free(s.id).expect("allocated above");
                    }
                    assert!(
                        i > 0,
                        "KV pool ({} pages) cannot fit one worst-case reservation \
                         of {} tokens; enlarge kv_pages/kv_mem_fraction",
                        kv.config().num_pages,
                        max_p + max_o
                    );
                    while batch.len() > i {
                        waiting.push_front(batch.pop().expect("len checked"));
                    }
                }
            }
        }

        let b = batch.len();
        let max_p = batch.iter().map(|s| s.prompt).max().expect("non-empty");
        let max_o = batch.iter().map(|s| s.target).max().expect("non-empty");

        // Prefill the rectangle: every slot processes max_p rows.
        let shape = StepShape::prefill(vec![max_p; b]);
        let real: usize = batch.iter().map(|s| s.prompt).sum();
        let sample = step_sample(&mut eng, cfg, &shape, real, cache);
        let gpu_s = sample.gpu_s;
        clock_s += gpu_s;
        metrics.charge(|l| l.charge_step(&sample));
        metrics.record_step(
            real,
            0,
            shape.rows(),
            gpu_s,
            kv.occupancy(),
            kv.fragmentation(),
        );
        rec.record(
            clock_s,
            DEVICE_LANE,
            TraceEvent::Step {
                prefill_rows: shape.rows(),
                decode_slots: 0,
                gpu_s,
            },
        );
        for s in batch.iter_mut() {
            metrics.record_ttft(clock_s - s.arrival_s, false);
            rec.record(clock_s, s.id, TraceEvent::FirstToken);
            s.generated = 1;
            s.last_token_s = clock_s;
            kv.extend(s.id, 1).expect("inside reservation");
            if s.done() {
                metrics.record_e2e(clock_s - s.arrival_s);
                rec.record(clock_s, s.id, TraceEvent::Finished);
            }
        }

        // Decode the rectangle to the longest output. Finished slots stay
        // in the batch as padding rows, and — as in fixed-shape inference
        // engines, whose compiled attention kernels span the preallocated
        // buffer with masking — every step attends the full reserved
        // `max prompt + max output` context, not just the tokens written
        // so far. That is the padded rectangle extended to the time axis,
        // and it is what the worst-case KV reservation buys.
        let ctx_pad = max_p + max_o - 1;
        for t in 2..=max_o {
            let shape = StepShape::decode(vec![ctx_pad; b]);
            let live = batch.iter().filter(|s| s.target >= t).count();
            let sample = step_sample(&mut eng, cfg, &shape, live, cache);
            let gpu_s = sample.gpu_s;
            clock_s += gpu_s;
            metrics.charge(|l| l.charge_step(&sample));
            metrics.record_step(0, live, b, gpu_s, kv.occupancy(), kv.fragmentation());
            rec.record(
                clock_s,
                DEVICE_LANE,
                TraceEvent::Step {
                    prefill_rows: 0,
                    decode_slots: live,
                    gpu_s,
                },
            );
            // Fixed-shape kernels attend the full reservation every step:
            // attended == cached == the padded context, per slot.
            metrics.record_attention(shape.attended_tokens(), shape.cached_tokens());
            let mut itl = ItlRun::default();
            for s in batch.iter_mut().filter(|s| s.target >= t) {
                itl.push(clock_s - s.last_token_s, metrics);
                rec.record(
                    clock_s,
                    s.id,
                    TraceEvent::DecodeStep {
                        attended: ctx_pad,
                        cached: ctx_pad,
                    },
                );
                s.generated = t;
                s.last_token_s = clock_s;
                kv.extend(s.id, 1).expect("inside reservation");
                if s.done() {
                    metrics.record_e2e(clock_s - s.arrival_s);
                    rec.record(clock_s, s.id, TraceEvent::Finished);
                }
            }
            itl.flush(metrics);
        }

        // The rectangle completes as one unit; only now do its pages free.
        for s in &batch {
            kv.free(s.id).expect("batch held pages");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_workloads::{ArrivalTrace, DatasetSpec, DecodeSpec, SharedPrefixSpec};

    /// A 2-layer OPT keeps the per-step analytic pass fast in unit tests.
    fn small_builder(policy: DecodePolicy) -> DecodeServeConfigBuilder {
        let mut model = ModelConfig::opt("1.3B");
        model.layers = 2;
        DecodeServeConfig::builder(model, DeviceSpec::a100_80gb()).policy(policy)
    }

    fn small_cfg(policy: DecodePolicy) -> DecodeServeConfig {
        small_builder(policy).build().expect("valid test config")
    }

    fn trace(n: usize) -> DecodeTrace {
        DecodeTrace::poisson(
            &DatasetSpec::mnli(),
            &DecodeSpec::geometric(24.0, 1, 96),
            n,
            400.0,
            31,
        )
    }

    fn total_real_rows(t: &DecodeTrace) -> usize {
        // Every request contributes prompt rows once plus one decode row
        // per generated token except the last (which is never fed back).
        t.prompt_lens
            .iter()
            .zip(&t.output_lens)
            .map(|(&p, &o)| p + o.max(1) - 1)
            .sum()
    }

    #[test]
    fn continuous_serves_every_request_and_conserves_pages() {
        let cfg = small_cfg(DecodePolicy::ContinuousPaddingFree { token_budget: 512 });
        let t = trace(48);
        let r = simulate_decode_trace(&cfg, &t);
        assert_eq!(r.requests, t.len());
        assert_eq!(r.real_tokens, total_real_rows(&t));
        assert_eq!(r.processed_tokens, r.real_tokens, "padding-free");
        assert_eq!(r.padding_waste(), 0.0);
        assert!(r.kv.conserved(), "pages leaked: {:?}", r.kv);
        assert_eq!(r.kv.preemptions, 0, "default pool is ample");
        assert!(r.iterations > 0);
        assert!(r.itl.p50 > 0.0 && r.itl.p50 <= r.itl.p95);
        assert!(r.ttft.p50 > 0.0 && r.ttft.p95 <= r.e2e.p95);
    }

    #[test]
    fn static_padded_serves_all_but_pays_for_the_rectangle() {
        let cfg = small_cfg(DecodePolicy::StaticPadded { max_batch: 8 });
        let t = trace(48);
        let r = simulate_decode_trace(&cfg, &t);
        assert_eq!(r.requests, t.len());
        assert_eq!(r.real_tokens, total_real_rows(&t));
        assert!(r.processed_tokens > r.real_tokens);
        assert!(r.padding_waste() > 0.1, "waste {}", r.padding_waste());
        assert!(r.kv.conserved());
        // Worst-case reservations show up as fragmentation.
        assert!(
            r.kv_mean_fragmentation > 0.2,
            "frag {}",
            r.kv_mean_fragmentation
        );
    }

    #[test]
    fn continuous_beats_static_on_throughput_and_itl() {
        // The acceptance regime: full-depth OPT-1.3B in fp16, same
        // concurrency for both policies (64 slots), long-output trace.
        let t = DecodeTrace::poisson(
            &DatasetSpec::mnli(),
            &DecodeSpec::geometric(128.0, 1, 512),
            96,
            300.0,
            31,
        );
        let free = simulate_decode_trace(&DecodeServeConfig::default(), &t);
        let padded = simulate_decode_trace(
            &DecodeServeConfig::builder(ModelConfig::opt("1.3B"), DeviceSpec::a100_80gb())
                .policy(DecodePolicy::StaticPadded { max_batch: 64 })
                .build()
                .expect("valid static config"),
            &t,
        );
        assert_eq!(free.real_tokens, padded.real_tokens, "same work arrived");
        assert!(free.tokens_per_s() > padded.tokens_per_s());
        assert!(free.gpu_time_s < padded.gpu_time_s);
        assert_eq!(free.padding_waste(), 0.0);
        assert!(free.padding_waste() < padded.padding_waste());
        assert!(
            free.itl.p95 < padded.itl.p95,
            "itl p95 {} vs {}",
            free.itl.p95,
            padded.itl.p95
        );
        assert!(free.ttft.p95 < padded.ttft.p95);
        assert!(free.e2e.p95 < padded.e2e.p95);
    }

    #[test]
    fn tiny_pool_preempts_but_still_completes_everything() {
        // Room for only ~2 concurrent max-length contexts: admission must
        // throttle and decode growth must preempt.
        let cfg = small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 512 })
            .kv_pages(30)
            .build()
            .expect("valid tiny-pool config");
        let t = trace(32);
        let r = simulate_decode_trace(&cfg, &t);
        assert_eq!(r.requests, t.len());
        assert!(
            r.kv.conserved(),
            "pages leaked under preemption: {:?}",
            r.kv
        );
        assert!(r.kv.preemptions > 0 || r.kv.alloc_failures > 0);
        // Recompute re-prefills are metered as overhead, not service:
        // goodput equals the trace exactly, and the re-derived rows show
        // up in `recomputed_tokens` / gross `prefill_tokens` instead.
        assert_eq!(r.real_tokens, total_real_rows(&t));
        assert!(r.recomputed_tokens > 0, "preemption re-prefilled context");
        assert!(r.prefill_tokens >= t.total_prompt_tokens() + r.recomputed_tokens);
        assert!(r.kv_peak_occupancy <= 1.0);
    }

    #[test]
    fn decode_simulation_is_deterministic() {
        let cfg = small_cfg(DecodePolicy::ContinuousPaddingFree { token_budget: 512 });
        let t = trace(32);
        let a = simulate_decode_trace(&cfg, &t);
        let b = simulate_decode_trace(&cfg, &t);
        // JIT-search cost is *modelled* (Algorithm 1's candidate count,
        // not the measured wall clock of the search), so the virtual
        // clock — and with it admission grouping, iteration count and
        // every tally — is bit-deterministic: the whole report compares
        // exactly.
        assert_eq!(a, b);
        assert!(a.ledger.conserved(), "ledger must tile the clock");
    }

    #[test]
    fn decode_steps_hit_the_shared_jit_cache() {
        let cfg = small_cfg(DecodePolicy::ContinuousPaddingFree { token_budget: 512 });
        let r = simulate_decode_trace(&cfg, &trace(48));
        let lookups = r.cache.hits + r.cache.misses;
        assert_eq!(lookups, r.iterations as u64);
        // Decode-step rows cluster into few 32-token shape classes.
        assert!(r.cache.hit_rate() > 0.5, "hit rate {}", r.cache.hit_rate());
    }

    fn shared_trace(n: usize, seed: u64) -> DecodeTrace {
        let spec = SharedPrefixSpec::assistants();
        let arrivals = ArrivalTrace::bursty(&DatasetSpec::mnli(), n, 400.0, 0.2, 0.4, seed);
        spec.decode_trace(
            &DecodeSpec::geometric(24.0, 1, 96),
            arrivals.arrival_s,
            seed,
        )
    }

    #[test]
    fn prefix_caching_cuts_prefill_work_and_ttft() {
        let t = shared_trace(48, 13);
        let b = small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
            .verify_invariants(true);
        let cached = b
            .clone()
            .prefix_caching(true)
            .build()
            .expect("valid cached config");
        let plain = b.build().expect("valid plain config");
        let c = simulate_decode_trace(&cached, &t);
        let p = simulate_decode_trace(&plain, &t);
        assert_eq!(c.requests, t.len());
        assert_eq!(p.requests, t.len());
        assert_eq!(c.policy, "continuous-prefix-cached");
        // The cache serves shared prefixes: strictly less prefill work,
        // same decode work.
        assert!(
            c.prefill_tokens < p.prefill_tokens,
            "prefill {} !< {}",
            c.prefill_tokens,
            p.prefill_tokens
        );
        assert_eq!(c.decode_tokens, p.decode_tokens);
        assert_eq!(
            c.prefix_cached_tokens,
            p.prefill_tokens - c.prefill_tokens,
            "every skipped prefill token was served from the cache"
        );
        assert!(c.prefix_hit_rate() > 0.5, "rate {}", c.prefix_hit_rate());
        assert_eq!(c.prefix_hits + c.prefix_misses, t.len());
        assert!(c.ttft.p95 < p.ttft.p95);
        // Both TTFT buckets populated; their ordering is workload-
        // dependent (queueing delay confounds it), so only existence is
        // asserted.
        assert!(c.ttft_hit.p95 > 0.0 && c.ttft_miss.p95 > 0.0);
        let ix = c.prefix.expect("index stats attached");
        assert!(ix.pages_held > 0, "index held pages at end of run");
        assert!(ix.hits >= c.prefix_hits as u64);
        // Refcounted pages drain leak-free once the index releases.
        assert!(c.kv.conserved(), "cached run leaked: {:?}", c.kv);
        assert!(c.kv.shared_admits > 0);
        assert!(p.prefix.is_none());
        assert_eq!(p.prefix_hits, 0);
    }

    #[test]
    fn prefix_cache_eviction_contends_with_decode_and_conserves() {
        let t = shared_trace(32, 17);
        // A pool a few requests deep: the index's pins must be evicted for
        // decode growth, and admission must throttle.
        let cfg = small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
            .prefix_caching(true)
            .verify_invariants(true)
            .kv_pages(64)
            .build()
            .expect("valid pressured prefix config");
        let r = simulate_decode_trace(&cfg, &t);
        assert_eq!(r.requests, t.len());
        assert!(r.kv.conserved(), "leaked under pressure: {:?}", r.kv);
        let ix = r.prefix.expect("index stats attached");
        assert!(
            ix.evicted_pages > 0,
            "pool pressure must evict index leaves: {ix:?}"
        );
        assert!(r.kv_peak_occupancy <= 1.0);
    }

    #[test]
    fn prefix_cached_simulation_is_deterministic() {
        // With JIT-search cost modelled (not measured), the virtual clock
        // is bit-deterministic, so admission grouping — and the split
        // between cache-served and prefilled prompt tokens that hangs off
        // it — replays exactly.
        let t = shared_trace(32, 19);
        let cfg = small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
            .prefix_caching(true)
            .build()
            .expect("valid cached config");
        let a = simulate_decode_trace(&cfg, &t);
        let b = simulate_decode_trace(&cfg, &t);
        assert_eq!(a, b);
        assert!(a.kv.conserved());
        assert!(a.ledger.conserved());
    }

    /// A long-output trace over a pool a few contexts deep: the pressure
    /// regime where preemption policy matters.
    fn pressured_trace(n: usize, seed: u64) -> DecodeTrace {
        DecodeTrace::poisson(
            &DatasetSpec::cola(),
            &DecodeSpec::summarization(),
            n,
            500.0,
            seed,
        )
    }

    fn pressured_cfg(preempt: PreemptPolicy) -> DecodeServeConfig {
        // One worst-case summarization context (64 + 768 tokens = 52
        // pages) plus a little headroom: decode growth must evict.
        small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
            .kv_pages(64)
            .preempt(preempt)
            .verify_invariants(true)
            .build()
            .expect("valid pressured config")
    }

    #[test]
    fn swap_preemption_preserves_context_and_completes_everything() {
        let t = pressured_trace(32, 23);
        let rec = simulate_decode_trace(&pressured_cfg(PreemptPolicy::Recompute), &t);
        let swp = simulate_decode_trace(&pressured_cfg(PreemptPolicy::SwapToHost), &t);
        assert_eq!(rec.requests, t.len());
        assert_eq!(swp.requests, t.len());
        assert_eq!(swp.policy, "continuous-swap-to-host");
        assert!(rec.kv.preemptions > 0, "pool must actually be pressured");
        assert!(swp.swap_preemptions > 0, "swap must actually engage");
        assert!(swp.restores > 0, "swapped sequences must come back");
        assert!(swp.restore.p50 > 0.0 && swp.restore.p50 <= swp.restore.p95);
        // The headline trade: swapped contexts are never re-prefilled, so
        // swap serves the same outputs with less prefill work. (Decode
        // rows are not exactly equal: a recompute re-admission folds the
        // victim's next token into its re-prefill completion, so
        // recompute converts a few decode rows into prefill-step rows.)
        assert!(swp.decode_tokens >= rec.decode_tokens);
        assert!(
            swp.prefill_tokens < rec.prefill_tokens,
            "swap re-prefilled {} vs recompute {}",
            swp.prefill_tokens,
            rec.prefill_tokens
        );
        assert!(swp.recompute_tokens_saved > 0);
        let s = swp.swap.expect("swap stats attached");
        assert_eq!(s.out_pages, swp.kv.swapped_out_pages);
        assert!(s.out_bytes > 0 && s.in_bytes > 0);
        assert!(swp.host_peak_occupancy > 0.0);
        assert!(swp.host_peak_occupancy <= 1.0);
        // Both tiers drain leak-free (checked every iteration too).
        assert!(swp.kv.conserved(), "swap run leaked: {:?}", swp.kv);
        assert_eq!(swp.kv.host_live_pages, 0);
        assert!(rec.kv.conserved());
        // Recompute runs carry no swap accounting.
        assert!(rec.swap.is_none());
        assert_eq!(rec.swap_preemptions, 0);
        assert_eq!(rec.restores, 0);
    }

    #[test]
    fn tiny_host_pool_falls_back_to_recompute_but_still_drains() {
        let t = pressured_trace(24, 29);
        // Room to stage only a couple of pages: most victims fall back.
        let cfg = small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
            .kv_pages(64)
            .preempt(PreemptPolicy::SwapToHost)
            .verify_invariants(true)
            .host_pages(2)
            .build()
            .expect("valid tiny-host config");
        let r = simulate_decode_trace(&cfg, &t);
        assert_eq!(r.requests, t.len());
        assert!(
            r.swap_fallbacks > 0,
            "a 2-page host pool must refuse victims: {r:?}"
        );
        assert!(r.kv.conserved(), "leaked: {:?}", r.kv);
        assert_eq!(r.kv.host_live_pages, 0);
        assert_eq!(r.kv.host_capacity_pages, 2);
    }

    #[test]
    fn swap_composes_with_prefix_caching() {
        let t = shared_trace(32, 31);
        let cfg = small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
            .prefix_caching(true)
            .preempt(PreemptPolicy::SwapToHost)
            .verify_invariants(true)
            .kv_pages(64) // index pins contend with decode growth
            .build()
            .expect("valid swap+prefix config");
        let r = simulate_decode_trace(&cfg, &t);
        assert_eq!(r.requests, t.len());
        assert_eq!(r.policy, "continuous-prefix-cached-swap");
        assert!(r.kv.conserved(), "leaked under swap+prefix: {:?}", r.kv);
        assert_eq!(r.kv.host_live_pages, 0);
        // Shared and pinned pages never cross the link, so every swap the
        // run performed moved exclusively-held pages only — enforced by
        // the pool, verified every iteration.
        assert!(r.prefix.is_some());
    }

    #[test]
    fn swap_with_shared_prefixes_never_livelocks_on_stranded_frames() {
        // The starving geometry: a large shared prefix stays device-
        // resident with the swapped victims (their exclusive tails go to
        // host), so a pool barely bigger than the prefix can be left
        // with fewer free frames than any restore needs. The scheduler
        // must demote rather than spin.
        let spec = SharedPrefixSpec {
            vocab: 256,
            num_system_prompts: 1,
            system_tokens: 96, // 6 shared pages on a 16-token page
            num_templates: 1,
            template_tokens: 16,
            unique_min: 4,
            unique_max: 12,
            zipf_exponent: 1.0,
        };
        let arrivals = ArrivalTrace::bursty(&DatasetSpec::mnli(), 12, 400.0, 0.2, 0.3, 41);
        let t = spec.decode_trace(&DecodeSpec::geometric(48.0, 8, 96), arrivals.arrival_s, 41);
        // Just over one worst-case context: shared pages + a thin margin.
        let cfg = small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 128 })
            .prefix_caching(true)
            .preempt(PreemptPolicy::SwapToHost)
            .verify_invariants(true)
            .kv_pages(16)
            .build()
            .expect("valid stranded-frames config");
        let r = simulate_decode_trace(&cfg, &t);
        assert_eq!(r.requests, t.len(), "run completed without spinning");
        assert!(r.kv.conserved(), "leaked: {:?}", r.kv);
        assert_eq!(r.kv.host_live_pages, 0);
    }

    #[test]
    fn swap_simulation_is_deterministic() {
        let t = pressured_trace(24, 37);
        let cfg = pressured_cfg(PreemptPolicy::SwapToHost);
        let a = simulate_decode_trace(&cfg, &t);
        let b = simulate_decode_trace(&cfg, &t);
        // Even under swap pressure — where a timing wobble would flip
        // preemption victims — the modelled-cost clock replays exactly.
        assert_eq!(a, b);
        assert!(a.kv.conserved());
        assert!(a.ledger.conserved());
        assert!(a.swap_preemptions > 0, "run must actually swap");
    }

    fn builder() -> DecodeServeConfigBuilder {
        DecodeServeConfig::builder(ModelConfig::opt("1.3B"), DeviceSpec::a100_80gb())
    }

    #[test]
    fn builder_rejects_static_policy_feature_combinations() {
        // The old mid-run panics are now construction-time errors: no
        // config with these combinations can exist.
        assert_eq!(
            builder()
                .policy(DecodePolicy::StaticPadded { max_batch: 4 })
                .preempt(PreemptPolicy::SwapToHost)
                .build()
                .unwrap_err(),
            ConfigError::StaticPaddedSwap
        );
        assert_eq!(
            builder()
                .policy(DecodePolicy::StaticPadded { max_batch: 4 })
                .prefix_caching(true)
                .build()
                .unwrap_err(),
            ConfigError::StaticPaddedPrefixCaching
        );
        assert_eq!(
            builder()
                .policy(DecodePolicy::StaticPadded { max_batch: 4 })
                .kv_sparsity(KvSparsityPolicy::SlidingWindow { recent: 64 })
                .build()
                .unwrap_err(),
            ConfigError::StaticPaddedSparsity
        );
        // The rejection text still names the constraint the old panic did.
        assert!(ConfigError::StaticPaddedSwap
            .to_string()
            .contains("continuous policy only"));
    }

    #[test]
    fn builder_rejects_inconsistent_and_degenerate_knobs() {
        assert_eq!(
            builder()
                .kv_pages(64)
                .kv_mem_fraction(0.5)
                .build()
                .unwrap_err(),
            ConfigError::KvPagesConflict
        );
        assert_eq!(
            builder().host_pages(8).build().unwrap_err(),
            ConfigError::HostPagesWithoutSwap
        );
        assert_eq!(
            builder().kv_mem_fraction(0.0).build().unwrap_err(),
            ConfigError::InvalidMemFraction
        );
        assert_eq!(
            builder().kv_mem_fraction(1.5).build().unwrap_err(),
            ConfigError::InvalidMemFraction
        );
        assert_eq!(
            builder().page_size(0).build().unwrap_err(),
            ConfigError::ZeroPageSize
        );
        assert_eq!(
            builder().kv_pages(0).build().unwrap_err(),
            ConfigError::ZeroKvPages
        );
        assert_eq!(
            builder()
                .preempt(PreemptPolicy::SwapToHost)
                .host_pages(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroHostPages
        );
        assert_eq!(
            builder()
                .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 0 })
                .build()
                .unwrap_err(),
            ConfigError::ZeroTokenBudget
        );
        assert_eq!(
            builder()
                .policy(DecodePolicy::StaticPadded { max_batch: 0 })
                .build()
                .unwrap_err(),
            ConfigError::ZeroMaxBatch
        );
        assert_eq!(
            builder().max_live(0).build().unwrap_err(),
            ConfigError::ZeroMaxLive
        );
        assert_eq!(
            builder().cache_capacity(0).build().unwrap_err(),
            ConfigError::ZeroCacheCapacity
        );
        assert_eq!(
            builder()
                .kv_sparsity(KvSparsityPolicy::SlidingWindow { recent: 0 })
                .build()
                .unwrap_err(),
            ConfigError::InvalidSparsity
        );
        assert_eq!(
            builder()
                .kv_sparsity(KvSparsityPolicy::HeavyHitter {
                    recent: 64,
                    heavy: 0
                })
                .build()
                .unwrap_err(),
            ConfigError::InvalidSparsity
        );
        // ConfigError is a real std error with a message per variant.
        let e: &dyn std::error::Error = &ConfigError::KvPagesConflict;
        assert!(e.to_string().contains("kv_pages"));
    }

    #[test]
    fn default_preset_is_the_documented_opt_a100_setup() {
        let cfg = DecodeServeConfig::default();
        assert_eq!(
            cfg.policy(),
            DecodePolicy::ContinuousPaddingFree { token_budget: 128 }
        );
        assert_eq!(cfg.model().name, ModelConfig::opt("1.3B").name);
        assert_eq!(cfg.dtype(), DType::F16);
        assert_eq!(cfg.page_size(), 16);
        assert_eq!(cfg.kv_pages(), None);
        assert!((cfg.kv_mem_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(cfg.prefill_chunk(), 64);
        assert_eq!(cfg.max_live(), 64);
        assert_eq!(cfg.cache_capacity(), 256);
        assert!(!cfg.prefix_caching());
        assert_eq!(cfg.preempt(), PreemptPolicy::Recompute);
        assert_eq!(cfg.host_pages(), None);
        assert_eq!(cfg.kv_sparsity(), KvSparsityPolicy::Dense);
        assert!(!cfg.verify_invariants());
    }

    #[test]
    fn kv_config_derivation_matches_model_geometry() {
        let cfg = builder()
            .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 2048 })
            .build()
            .expect("valid config");
        let kv = cfg.kv_config();
        assert_eq!(
            kv.page_bytes,
            cfg.page_size()
                * cfg.model().layers
                * 2
                * cfg.model().hidden
                * cfg.dtype().size_bytes()
        );
        assert!(kv.pool_bytes() <= (cfg.device().global_mem_bytes as f64 * 0.25) as usize);
        // Recompute pools carry no host tier.
        assert_eq!(kv.host_pages, 0);
        // Explicit page counts win over the derived pool size but still
        // carry the per-page wire weight (the swap cost model needs it).
        let small = builder().kv_pages(7).build().expect("valid config");
        assert_eq!(small.kv_config().num_pages, 7);
        assert_eq!(small.kv_config().page_bytes, kv.page_bytes);
        // Swap preemption grants a host tier: 2x the device pool by
        // default, or exactly what the caller asks for.
        let small = builder()
            .kv_pages(7)
            .preempt(PreemptPolicy::SwapToHost)
            .build()
            .expect("valid config");
        assert_eq!(small.kv_config().host_pages, 14);
        let small = builder()
            .kv_pages(7)
            .preempt(PreemptPolicy::SwapToHost)
            .host_pages(40)
            .build()
            .expect("valid config");
        assert_eq!(small.kv_config().host_pages, 40);
        assert_eq!(small.kv_config().total_ids(), 47);
    }

    #[test]
    fn sparsity_plan_keeps_sink_window_and_heavy_hitters() {
        let ps = 16;
        // Dense never evicts and attends everything.
        assert!(KvSparsityPolicy::Dense.evict_positions(400, ps).is_empty());
        assert_eq!(KvSparsityPolicy::Dense.attended(400, ps), 400);
        // 400 cached tokens = pages 0..=24 (page 25 partial). A 64-token
        // window starts at token 336 -> page 21; sink is page 0; pages
        // 1..=20 are evictable.
        let sw = KvSparsityPolicy::SlidingWindow { recent: 64 };
        let evict = sw.evict_positions(400, ps);
        assert_eq!(evict, (1..21).collect::<Vec<_>>());
        assert_eq!(sw.attended(400, ps), 16 + 64);
        // Heavy hitters retain ceil(32/16)=2 evenly-spaced middle pages.
        let hh = KvSparsityPolicy::HeavyHitter {
            recent: 64,
            heavy: 32,
        };
        let evict_hh = hh.evict_positions(400, ps);
        assert_eq!(evict_hh.len(), 20 - 2);
        for pos in &evict_hh {
            assert!((1..21).contains(pos), "evicted {pos} outside the middle");
        }
        assert_eq!(hh.attended(400, ps), 16 + 64 + 32);
        // Short caches have nothing to evict and attend themselves fully.
        assert!(sw.evict_positions(70, ps).is_empty());
        assert_eq!(sw.attended(70, ps), 70);
        assert_eq!(sw.attended(0, ps), 0);
    }

    /// The sparsity acceptance trace: long outputs over modest prompts,
    /// so cached contexts grow far past any retention budget.
    fn long_decode_trace(n: usize, seed: u64) -> DecodeTrace {
        DecodeTrace::poisson(
            &DatasetSpec::mnli(),
            &DecodeSpec::geometric(192.0, 32, 512),
            n,
            400.0,
            seed,
        )
    }

    fn sparse_cfg(policy: KvSparsityPolicy) -> DecodeServeConfig {
        // 64 pages comfortably fits the longest single request (~40
        // pages) but is far enough under the trace's concurrent demand
        // that the dense run always preempts — the pressure the sparsity
        // comparison needs.
        small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
            .kv_pages(64)
            .kv_sparsity(policy)
            .verify_invariants(true)
            .build()
            .expect("valid sparse config")
    }

    #[test]
    fn heavy_hitter_sparsity_wins_at_equal_kv_budget() {
        // Equal KV budget (96 pages), same trace: the dense run must
        // preempt while the heavy-hitter run's compacted footprint rides
        // out the pressure, serving the same requests faster.
        let t = long_decode_trace(24, 43);
        let dense = simulate_decode_trace(&sparse_cfg(KvSparsityPolicy::Dense), &t);
        let hh = simulate_decode_trace(
            // ~10 retained pages per sequence (sink + 4 recent + 4 heavy
            // + tail) against ~38 for a full dense context: heavy-hitter
            // sits far enough under the 64-page pool that its preemption
            // count stays below dense's on every timing realisation.
            &sparse_cfg(KvSparsityPolicy::HeavyHitter {
                recent: 64,
                heavy: 64,
            }),
            &t,
        );
        assert_eq!(dense.requests, t.len());
        assert_eq!(hh.requests, t.len());
        assert_eq!(hh.policy, "continuous-padding-free+heavy-hitter");
        assert!(dense.kv.preemptions > 0, "dense run must be pressured");
        assert!(
            hh.kv.preemptions < dense.kv.preemptions,
            "sparsity must shrink footprint: {} !< {}",
            hh.kv.preemptions,
            dense.kv.preemptions
        );
        // Same trace, same goodput numerator — the throughput ordering is
        // decided purely by modelled GPU time (attention read-set size
        // plus recompute overhead).
        assert_eq!(dense.real_tokens, hh.real_tokens);
        assert!(
            hh.tokens_per_s() > dense.tokens_per_s(),
            "attended-scaled attention must be faster: {} !> {}",
            hh.tokens_per_s(),
            dense.tokens_per_s()
        );
        assert!(
            dense.recomputed_tokens > hh.recomputed_tokens,
            "more preemptions must show up as more recompute overhead"
        );
        assert!(hh.sparsity_dropped_pages > 0);
        assert!(hh.sparsity_freed_pages > 0);
        assert_eq!(hh.kv.sparsity_evicted_pages, hh.sparsity_dropped_pages);
        assert!(hh.attended_fraction() < 1.0);
        assert_eq!(dense.kv.sparsity_evicted_pages, 0);
        assert_eq!(dense.attended_fraction(), 1.0);
        // Both drain leak-free (verified every iteration too).
        assert!(dense.kv.conserved(), "dense leaked: {:?}", dense.kv);
        assert!(hh.kv.conserved(), "sparse leaked: {:?}", hh.kv);
    }

    #[test]
    fn sliding_window_bounds_cached_context() {
        // Ample pool: this test isolates the footprint bound, with no
        // preemption churn. Because eviction reclaims everything outside
        // the retained set, `cached` itself converges onto the window —
        // the win is a small cached footprint, measured against a dense
        // run of the same trace.
        let t = long_decode_trace(16, 47);
        let build = |sparsity| {
            small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
                .kv_pages(512)
                .kv_sparsity(sparsity)
                .verify_invariants(true)
                .build()
                .expect("valid config")
        };
        let dense = simulate_decode_trace(&build(KvSparsityPolicy::Dense), &t);
        let r = simulate_decode_trace(&build(KvSparsityPolicy::SlidingWindow { recent: 64 }), &t);
        assert_eq!(r.requests, t.len());
        assert!(r.kv.conserved(), "leaked: {:?}", r.kv);
        assert!(
            r.sparsity_dropped_pages > 0,
            "long outputs must trigger eviction"
        );
        // Steady state holds sink + window + slack: well under the
        // unbounded context of a 192-token-output trace.
        assert!(
            r.cached_ctx_tokens < dense.cached_ctx_tokens * 6 / 10,
            "window must bound the cached footprint: {} !< 0.6 * {}",
            r.cached_ctx_tokens,
            dense.cached_ctx_tokens
        );
        assert!(r.attended_fraction() < 1.0);
        assert!(
            r.gpu_time_s < dense.gpu_time_s,
            "smaller read set is faster"
        );
        assert_eq!(r.policy, "continuous-padding-free+sliding-window");
        let text = r.to_string();
        assert!(
            text.contains("kv sparsity"),
            "report renders sparsity: {text}"
        );
    }

    #[test]
    fn sparse_simulation_is_deterministic() {
        let t = long_decode_trace(16, 53);
        let cfg = small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
            .kv_pages(512)
            .kv_sparsity(KvSparsityPolicy::HeavyHitter {
                recent: 96,
                heavy: 64,
            })
            .verify_invariants(true)
            .build()
            .expect("valid sparse config");
        let a = simulate_decode_trace(&cfg, &t);
        let b = simulate_decode_trace(&cfg, &t);
        // Same policy as `decode_simulation_is_deterministic`: the
        // modelled JIT-search cost makes the whole report — GPU time
        // included — bit-deterministic.
        assert_eq!(a, b);
        assert_eq!(a.real_tokens, total_real_rows(&t));
        assert!(a.sparsity_dropped_pages > 0);
        assert!(a.kv.conserved());
        assert!(a.ledger.conserved());
    }

    #[test]
    fn sparsity_composes_with_prefix_caching_and_swap() {
        // All three KV features at once: shared prefix pages are pinned
        // by the index, so sparsity eviction drops the sequence's
        // reference without freeing the frame; swap preemption moves
        // only exclusively-held pages. Invariants checked per iteration.
        let t = shared_trace(24, 59);
        let cfg = small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 128 })
            .prefix_caching(true)
            .preempt(PreemptPolicy::SwapToHost)
            .kv_sparsity(KvSparsityPolicy::SlidingWindow { recent: 64 })
            .kv_pages(48)
            .verify_invariants(true)
            .build()
            .expect("valid composed config");
        let r = simulate_decode_trace(&cfg, &t);
        assert_eq!(r.requests, t.len());
        assert_eq!(r.policy, "continuous-prefix-cached-swap+sliding-window");
        assert!(r.kv.conserved(), "leaked: {:?}", r.kv);
        assert_eq!(r.kv.host_live_pages, 0);
        assert!(r.sparsity_dropped_pages >= r.sparsity_freed_pages);
    }
}
