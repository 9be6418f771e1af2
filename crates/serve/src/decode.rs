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
//! ([`pit_kv::PagedKvCache::release_slot_positions`]) — their frames
//! return to the pool unless a prefix pin or shared-prefix sibling still
//! holds them — and each step's attention cost scales with the
//! *attended* context (micro-tile packed per PIT Algorithm 1) rather
//! than the cached context. The smaller footprint converts directly into
//! fewer preemptions at equal KV budget.
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
use crate::step::{price_step, StepWork, CACHE_CAPACITY};
use pit_core::jit::JitCache;
use pit_gpusim::DeviceSpec;
use pit_kv::{KvConfig, PagedKvCache, SeqSlot};
use pit_models::decode::{DecodeSlot, StepShape};
use pit_models::{Engine, Framework, ModelConfig};
use pit_prefix::RadixPrefixIndex;
use pit_swap::{plan_swap_out, PageDesc, RestoreQueue, SwapEngine};
use pit_tensor::DType;
use pit_trace::{
    BlameBreakdown, ExemplarReservoir, ExemplarSet, LaneTable, MetricsHub, TraceEvent, TraceRecord,
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
        /// Maximum rows (prefill tokens + decode slots) per iteration.
        /// Prompts prefill in chunks of up to 64 tokens that fill what the
        /// decode slots leave. Only a head-of-line chunk larger than the
        /// whole budget runs alone, when nothing is decoding.
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
        let mut evict = Vec::new();
        self.evict_positions_into(len, page_size, &mut evict);
        evict
    }

    /// [`evict_positions`](Self::evict_positions) written into `evict`,
    /// which it clears first, so that a scheduler reuses one buffer for
    /// every compaction.
    pub(crate) fn evict_positions_into(
        &self,
        len: usize,
        page_size: usize,
        evict: &mut Vec<usize>,
    ) {
        evict.clear();
        let (recent, heavy) = match *self {
            KvSparsityPolicy::Dense => return,
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
            return;
        }
        evict.reserve(middle - hh);
        let mut kept = 0;
        for i in 0..middle {
            if kept < hh && i == kept * middle / hh {
                kept += 1;
            } else {
                evict.push(i + 1);
            }
        }
    }
}

/// Why [`DecodeServeConfigBuilder::build`] refused a configuration.
/// Inconsistent combinations fail here, at construction, instead of
/// panicking mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `host_pages` was set under [`PreemptPolicy::Recompute`], which
    /// never touches a host tier.
    HostPagesWithoutSwap,
    /// Explicit `kv_pages` of zero.
    ZeroKvPages,
    /// Explicit `host_pages` of zero (omit it for the default tier size).
    ZeroHostPages,
    /// Continuous policy with a zero token budget.
    ZeroTokenBudget,
    /// Static policy with a zero batch bound.
    ZeroMaxBatch,
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
            ConfigError::HostPagesWithoutSwap => {
                "host_pages is set but preemption is recompute, which never \
                 uses a host tier; set preempt(PreemptPolicy::SwapToHost)"
            }
            ConfigError::ZeroKvPages => "kv_pages must be at least 1 page",
            ConfigError::ZeroHostPages => {
                "host_pages must be at least 1 page (omit it for the default \
                 host tier)"
            }
            ConfigError::ZeroTokenBudget => "the continuous token_budget must be at least 1 row",
            ConfigError::ZeroMaxBatch => "the static max_batch must be at least 1 request",
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

/// Precision of every decode replay: fp16, LLM-serving precision (decode
/// steps are memory-bound, so K/V streaming is first-order).
const DTYPE: DType = DType::F16;
/// Fraction of device memory the KV pool gets unless `kv_pages` is set.
const KV_MEM_FRACTION: f64 = 0.25;
/// Chunked-prefill cap: prompt tokens one request prefills per step.
const PREFILL_CHUNK: usize = 64;
/// Token slots per KV page.
const PAGE_SIZE: usize = 16;
/// Live-set bound (vLLM's `max_num_seqs`): requests prefilling, decoding
/// or restoring at once.
const MAX_LIVE: usize = 64;

/// Configuration of one decode serving run.
///
/// Constructed exclusively through [`DecodeServeConfig::builder`], which
/// validates every combination at build time ([`ConfigError`]) — the
/// fields are private, so an inconsistent run cannot be assembled by
/// hand. [`Default`] is the OPT-1.3B / A100-80GB preset. Every run is
/// fp16, pages KV in 16-token pages, shares one 256-entry JIT cache,
/// prefills in 64-token chunks and keeps at most 64 requests live; unless
/// `kv_pages` is set, the KV pool gets 25% of device memory.
#[derive(Debug, Clone)]
pub struct DecodeServeConfig {
    policy: DecodePolicy,
    model: ModelConfig,
    device: DeviceSpec,
    kv_pages: Option<usize>,
    prefix_caching: bool,
    preempt: PreemptPolicy,
    host_pages: Option<usize>,
    kv_sparsity: KvSparsityPolicy,
    verify_invariants: bool,
}

impl Default for DecodeServeConfig {
    /// The reference decode setup: OPT-1.3B (an actual decoder —
    /// autoregressive serving is its workload) on an A100, continuous
    /// batching under a 128-row budget, 16-token pages over 25% of device
    /// memory, recompute preemption, dense attention.
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
            cfg: DecodeServeConfig {
                policy: DecodePolicy::ContinuousPaddingFree { token_budget: 128 },
                model,
                device,
                kv_pages: None,
                prefix_caching: false,
                preempt: PreemptPolicy::Recompute,
                host_pages: None,
                kv_sparsity: KvSparsityPolicy::Dense,
                verify_invariants: false,
            },
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

    /// Precision (always fp16).
    pub fn dtype(&self) -> DType {
        DTYPE
    }

    /// Token slots per KV page (always 16).
    pub fn page_size(&self) -> usize {
        PAGE_SIZE
    }

    /// Explicit KV pool size in pages (`None` = 25% of device memory).
    pub fn kv_pages(&self) -> Option<usize> {
        self.kv_pages
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
            Some(pages) => KvConfig::new(PAGE_SIZE, pages).with_page_bytes(
                PAGE_SIZE * self.model.layers * 2 * self.model.hidden * DTYPE.size_bytes(),
            ),
            None => KvConfig::for_budget(
                (self.device.global_mem_bytes as f64 * KV_MEM_FRACTION) as usize,
                PAGE_SIZE,
                self.model.layers,
                self.model.hidden,
                DTYPE.size_bytes(),
            ),
        };
        let host = match self.preempt {
            PreemptPolicy::Recompute => 0,
            PreemptPolicy::SwapToHost => self.host_pages.unwrap_or(2 * base.num_pages),
        };
        base.with_host_pages(host)
    }

    /// The policy name a report carries: the batching policy, or which
    /// of prefix caching and swap the continuous policy runs with, plus
    /// any KV-sparsity policy (the builder allows neither for the static
    /// policy).
    fn report_name(&self) -> String {
        let mut name = match (self.prefix_caching, self.preempt) {
            (false, PreemptPolicy::Recompute) => self.policy.name(),
            (true, PreemptPolicy::Recompute) => "continuous-prefix-cached",
            (false, PreemptPolicy::SwapToHost) => "continuous-swap-to-host",
            (true, PreemptPolicy::SwapToHost) => "continuous-prefix-cached-swap",
        }
        .to_string();
        if !self.kv_sparsity.is_dense() {
            name.push('+');
            name.push_str(self.kv_sparsity.name());
        }
        name
    }
}

/// Builder for [`DecodeServeConfig`]; see [`DecodeServeConfig::builder`].
/// Every setter is chainable; [`Self::build`] validates the combination
/// and is the only way to obtain a config.
#[derive(Debug, Clone)]
pub struct DecodeServeConfigBuilder {
    cfg: DecodeServeConfig,
}

impl DecodeServeConfigBuilder {
    /// Sets the batch-formation policy (default: continuous, 128-row
    /// token budget).
    pub fn policy(mut self, policy: DecodePolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Sets an explicit KV pool size in pages (default: 25% of device
    /// memory).
    pub fn kv_pages(mut self, pages: usize) -> Self {
        self.cfg.kv_pages = Some(pages);
        self
    }

    /// Enables or disables prompt-prefix caching (continuous policy
    /// only; requires the trace to carry `prompt_ids`).
    pub fn prefix_caching(mut self, on: bool) -> Self {
        self.cfg.prefix_caching = on;
        self
    }

    /// Sets the preemption policy (default recompute).
    pub fn preempt(mut self, preempt: PreemptPolicy) -> Self {
        self.cfg.preempt = preempt;
        self
    }

    /// Sets the host staging-pool size in pages (swap preemption only;
    /// the default without this call is twice the device pool).
    pub fn host_pages(mut self, pages: usize) -> Self {
        self.cfg.host_pages = Some(pages);
        self
    }

    /// Sets the per-sequence KV-sparsity policy (continuous policy only;
    /// default dense).
    pub fn kv_sparsity(mut self, policy: KvSparsityPolicy) -> Self {
        self.cfg.kv_sparsity = policy;
        self
    }

    /// Enables or disables per-iteration invariant checking.
    pub fn verify_invariants(mut self, on: bool) -> Self {
        self.cfg.verify_invariants = on;
        self
    }

    /// Validates the combination and produces the config. Every
    /// inconsistency is a [`ConfigError`] here instead of a panic
    /// mid-run.
    pub fn build(self) -> Result<DecodeServeConfig, ConfigError> {
        let cfg = self.cfg;
        match cfg.policy {
            DecodePolicy::ContinuousPaddingFree { token_budget: 0 } => {
                return Err(ConfigError::ZeroTokenBudget);
            }
            DecodePolicy::StaticPadded { max_batch: 0 } => {
                return Err(ConfigError::ZeroMaxBatch);
            }
            DecodePolicy::StaticPadded { .. } => {
                if cfg.prefix_caching {
                    return Err(ConfigError::StaticPaddedPrefixCaching);
                }
                if matches!(cfg.preempt, PreemptPolicy::SwapToHost) {
                    return Err(ConfigError::StaticPaddedSwap);
                }
                if !cfg.kv_sparsity.is_dense() {
                    return Err(ConfigError::StaticPaddedSparsity);
                }
            }
            DecodePolicy::ContinuousPaddingFree { .. } => {}
        }
        if cfg.kv_pages == Some(0) {
            return Err(ConfigError::ZeroKvPages);
        }
        if cfg.host_pages == Some(0) {
            return Err(ConfigError::ZeroHostPages);
        }
        if cfg.host_pages.is_some() && matches!(cfg.preempt, PreemptPolicy::Recompute) {
            return Err(ConfigError::HostPagesWithoutSwap);
        }
        match cfg.kv_sparsity {
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
        Ok(cfg)
    }
}

/// One request moving through the decode runtime.
#[derive(Debug, Clone, Copy)]
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
    /// The sequence's row of the KV pool, set when it joins `running`:
    /// each step reads and grows a running sequence by it, without
    /// hashing its id. Kept across swap-out and swap-in (the sequence
    /// holds its row throughout); a recompute requeue, which frees the
    /// row, clears it.
    slot: Option<SeqSlot>,
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

    /// The slot of a running sequence.
    fn running_slot(&self) -> SeqSlot {
        self.slot.expect("a running sequence carries its slot")
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
/// completion is recorded on the virtual clock and lands in `sink` in one
/// batch when the replay ends (or unwinds from a panic). When the sink is
/// enabled, the report additionally carries the per-request
/// queue/prefill/decode/stall breakdown and causal blame, folded as each
/// event is recorded into a [`LaneTable`] with one slot per lane the sink
/// keeps (`trace.len()` lanes, head-sampled by the sink's stride) — equal
/// to reducing the sink's records with [`pit_trace::blame_spans`] after
/// the run. A disabled sink allocates no table and makes this identical
/// to the untraced entry point, which attaches no observer: its recorder
/// returns before any record is built.
pub fn simulate_decode_trace_traced(
    cfg: &DecodeServeConfig,
    trace: &DecodeTrace,
    sink: &TraceSink,
) -> DecodeReport {
    simulate_decode_trace_observed(cfg, trace, sink, 0, None).0
}

/// [`simulate_decode_trace_traced`] with the full observer set. Every
/// observer sees each event once, as it is recorded: the sink's batch and
/// online blame fold, the exemplar reservoir and the hub; nothing passes
/// over the records again at the end of the run. It
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
    let waiting: VecDeque<Seq> = trace
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
            slot: None,
        })
        .collect();
    let mut r = Replay {
        cfg,
        cache: JitCache::with_capacity(CACHE_CAPACITY),
        eng: Engine::new(cfg.device.clone(), DTYPE, cfg.policy.framework()),
        kv: PagedKvCache::new(cfg.kv_config()),
        metrics: DecodeMetrics::observed_by(hub),
        rec: Recorder::new(sink, exemplar_k, hub, trace.len()),
        clock_s: 0.0,
    };
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
            Continuous::new(&mut r, token_budget, waiting, &trace.prompt_ids).run();
        }
        DecodePolicy::StaticPadded { max_batch } => r.run_static(max_batch, waiting),
    }
    if cfg.verify_invariants {
        r.kv.check_invariants()
            .expect("kv invariants at end of run");
    }
    let (exemplars, spans) = r.rec.finish();
    if sink.is_enabled() {
        // The recorder folded every kept lane as it recorded it.
        r.metrics.set_blame_spans(&spans);
    }
    if let Some(h) = hub {
        h.finish();
    }
    let cache = CacheStats::of(&r.cache);
    (
        r.metrics.report(&cfg.report_name(), r.kv.stats(), cache),
        exemplars,
    )
}

/// The replay's own trace records, in emission order (`ord` = position),
/// handed to the sink in one [`TraceSink::append`] when dropped: at the
/// end of the run, or while a panicking replay unwinds, so the sink still
/// gets every record emitted before the panic. The hot loop takes no
/// lock.
struct SinkBatch<'a> {
    sink: &'a TraceSink,
    records: Vec<TraceRecord>,
}

impl Drop for SinkBatch<'_> {
    fn drop(&mut self) {
        self.sink.append(std::mem::take(&mut self.records));
    }
}

/// Records lifecycle events for the trace sink, folds blame over the
/// lanes the sink keeps as it records them, and keeps each live lane's
/// full timeline for the tail-exemplar reservoir. The blame fold is a
/// slot update in a table with one slot per kept lane, allocated only for
/// an enabled sink. The timelines are buffered independently of the
/// sink, so exemplars survive a disabled or head-sampled sink. With no
/// enabled sink, no hub and `k == 0`, `record` is an inlined early return.
struct Recorder<'a> {
    /// Whether an enabled sink, a hub or a reservoir is attached.
    observed: bool,
    batch: SinkBatch<'a>,
    /// Blame over the kept sequence lanes, folded online: the same spans
    /// [`blame_spans`](pit_trace::blame_spans) would reduce from the
    /// sink's records after the run. Empty for a disabled sink.
    blame: LaneTable,
    reservoir: ExemplarReservoir,
    timelines: BTreeMap<u64, Vec<TraceRecord>>,
    ord: u64,
    /// Live metrics plane, if attached. Strictly write-only: the loop
    /// never reads it, so replays stay byte-identical with it attached.
    hub: Option<&'a MetricsHub>,
}

impl<'a> Recorder<'a> {
    /// A recorder for a replay of `lanes` requests.
    fn new(
        sink: &'a TraceSink,
        exemplar_k: usize,
        hub: Option<&'a MetricsHub>,
        lanes: usize,
    ) -> Self {
        let kept = if sink.is_enabled() { lanes } else { 0 };
        let reservoir = ExemplarReservoir::new(exemplar_k);
        Recorder {
            observed: sink.is_enabled() || hub.is_some() || reservoir.is_enabled(),
            batch: SinkBatch {
                sink,
                records: Vec::new(),
            },
            blame: LaneTable::new(kept, sink.sample_every()),
            reservoir,
            timelines: BTreeMap::new(),
            ord: 0,
            hub,
        }
    }

    /// Records `event` on `lane` at `t_s` for every attached observer.
    #[inline]
    fn record(&mut self, t_s: f64, lane: u64, event: TraceEvent) {
        if self.observed {
            self.observe(t_s, lane, event);
        }
    }

    /// [`Recorder::record`]'s work for the attached observers, kept out of
    /// line so that the check inlines alone at every call site.
    #[inline(never)]
    fn observe(&mut self, t_s: f64, lane: u64, event: TraceEvent) {
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
        if self.batch.sink.keeps(lane) {
            self.blame.observe(t_s, lane, &event);
            let records = &mut self.batch.records;
            records.push(TraceRecord {
                ord: records.len() as u64,
                t_s,
                lane,
                event,
            });
        }
    }

    /// Hands the records to the sink and returns the exemplars and every
    /// kept lane's blame breakdown.
    fn finish(self) -> (ExemplarSet, BTreeMap<u64, BlameBreakdown>) {
        drop(self.batch);
        (self.reservoir.finish(), self.blame.finish())
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

/// The state both decode loops replay on: the configuration, the shared
/// JIT cache, the one engine every step is priced on, the KV pool, the
/// metrics collector, the observers and the virtual clock. Booking a
/// step, emitting a token and jumping the clock each live here once.
struct Replay<'a> {
    cfg: &'a DecodeServeConfig,
    cache: JitCache,
    /// Every step of the replay is priced on this one engine.
    eng: Engine,
    kv: PagedKvCache,
    metrics: DecodeMetrics<'a>,
    rec: Recorder<'a>,
    clock_s: f64,
}

impl Replay<'_> {
    /// Runs one step: prices `shape` on the replay's engine
    /// ([`price_step`]), advances the clock by its GPU time, charges the
    /// ledger, records the step with its `prefill_real` prompt rows and
    /// `decode_real` decode rows (the rest of the shape's rows are padding)
    /// and puts a `Step` on the device lane. The lane's `prefill_rows` are
    /// the shape's, padding included.
    fn step(&mut self, shape: &StepShape, prefill_real: usize, decode_real: usize) {
        let work = StepWork::Decode(shape, prefill_real + decode_real);
        let sample = price_step(&mut self.eng, &self.cache, &self.cfg.model, work);
        let gpu_s = sample.gpu_s;
        self.clock_s += gpu_s;
        self.metrics.charge(|l| l.charge_step(&sample));
        self.metrics.record_step(
            prefill_real,
            decode_real,
            shape.rows(),
            gpu_s,
            self.kv.occupancy(),
            self.kv.fragmentation(),
        );
        self.rec.record(
            self.clock_s,
            DEVICE_LANE,
            TraceEvent::Step {
                prefill_rows: shape.prefill_tokens() + shape.chunk_tokens(),
                decode_slots: decode_real,
                gpu_s,
            },
        );
    }

    /// Emits one token of `s` at the current clock: a first token records
    /// TTFT, any later one (a re-admitted request's first token after
    /// preemption included — its gap holds the requeue and recompute) an
    /// inter-token gap. Then `event` marks the token. Returns whether the
    /// request is done, in which case its e2e latency and `Finished` are
    /// recorded too; its KV pages are the caller's to settle.
    fn emit(&mut self, s: &mut Seq, itl: &mut ItlRun, event: TraceEvent) -> bool {
        if s.generated == 0 {
            self.metrics
                .record_ttft(self.clock_s - s.arrival_s, s.prefix_hit);
        } else {
            itl.push(self.clock_s - s.last_token_s, &mut self.metrics);
        }
        self.rec.record(self.clock_s, s.id, event);
        s.generated += 1;
        s.last_token_s = self.clock_s;
        if !s.done() {
            return false;
        }
        self.metrics.record_e2e(self.clock_s - s.arrival_s);
        self.rec.record(self.clock_s, s.id, TraceEvent::Finished);
        true
    }

    /// Jumps the clock forward to `t_s`, charging the gap to the ledger as
    /// an h2d stall when the replay waits out a `restore`, as idle time
    /// otherwise. Returns whether the clock moved (never for a past or
    /// infinite `t_s`).
    fn wait_until(&mut self, t_s: f64, restore: bool) -> bool {
        if !(t_s.is_finite() && t_s > self.clock_s) {
            return false;
        }
        let gap_s = t_s - self.clock_s;
        if restore {
            self.metrics.charge(|l| l.charge_h2d_stall(gap_s));
        } else {
            self.metrics.charge(|l| l.charge_idle(gap_s));
        }
        self.clock_s = t_s;
        true
    }

    /// The static padded loop: batch once, reserve worst-case KV, prefill
    /// the rectangle, decode until the longest output completes.
    fn run_static(&mut self, max_batch: usize, mut waiting: VecDeque<Seq>) {
        while let Some(head) = waiting.front() {
            self.wait_until(head.arrival_s, false);
            let mut batch: Vec<Seq> = Vec::new();
            while batch.len() < max_batch {
                match waiting.front() {
                    Some(w) if w.arrival_s <= self.clock_s => {
                        let w = waiting.pop_front().expect("front checked");
                        self.rec.record(
                            self.clock_s,
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
            self.reserve_rectangle(&mut batch, &mut waiting);

            let b = batch.len();
            let max_p = batch.iter().map(|s| s.prompt).max().expect("non-empty");
            let max_o = batch.iter().map(|s| s.target).max().expect("non-empty");

            // Prefill the rectangle: every slot processes max_p rows.
            let real: usize = batch.iter().map(|s| s.prompt).sum();
            self.step(&StepShape::prefill(vec![max_p; b]), real, 0);
            let mut itl = ItlRun::default();
            for s in batch.iter_mut() {
                self.emit(s, &mut itl, TraceEvent::FirstToken);
                self.kv.extend(s.id, 1).expect("inside reservation");
            }

            // Decode the rectangle to the longest output. Finished slots
            // stay in the batch as padding rows, and — as in fixed-shape
            // inference engines, whose compiled attention kernels span
            // the preallocated buffer with masking — every step attends
            // the full reserved `max prompt + max output` context, not
            // just the tokens written so far. That is the padded
            // rectangle extended to the time axis, and it is what the
            // worst-case KV reservation buys.
            let ctx_pad = max_p + max_o - 1;
            for t in 2..=max_o {
                let shape = StepShape::decode(vec![ctx_pad; b]);
                let live = batch.iter().filter(|s| s.target >= t).count();
                self.step(&shape, 0, live);
                // Fixed-shape kernels attend the full reservation every
                // step: attended == cached == the padded context, per slot.
                self.metrics
                    .record_attention(shape.attended_tokens(), shape.cached_tokens());
                for s in batch.iter_mut().filter(|s| s.target >= t) {
                    let event = TraceEvent::DecodeStep {
                        attended: ctx_pad,
                        cached: ctx_pad,
                    };
                    self.emit(s, &mut itl, event);
                    self.kv.extend(s.id, 1).expect("inside reservation");
                }
                itl.flush(&mut self.metrics);
            }

            // The rectangle completes as one unit; only now do its pages
            // free.
            for s in &batch {
                self.kv.free(s.id).expect("batch held pages");
            }
        }
    }

    /// Worst-case contiguous reservation per slot of a static batch: max
    /// prompt + max output. If the pool cannot hold the whole batch, it
    /// shrinks from the back (those requests return to the queue head).
    fn reserve_rectangle(&mut self, batch: &mut Vec<Seq>, waiting: &mut VecDeque<Seq>) {
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
            let Some(i) = batch.iter().position(|s| {
                self.kv
                    .alloc_reserved(s.id, s.prompt, max_p + max_o)
                    .is_err()
            }) else {
                return;
            };
            for s in &batch[..i] {
                self.kv.free(s.id).expect("allocated above");
            }
            assert!(
                i > 0,
                "KV pool ({} pages) cannot fit one worst-case reservation \
                 of {} tokens; enlarge kv_pages",
                self.kv.config().num_pages,
                max_p + max_o
            );
            while batch.len() > i {
                waiting.push_front(batch.pop().expect("len checked"));
            }
        }
    }
}

/// The continuous-batching scheduler with chunked prefill. It owns the
/// request queues, the prefix index, the swap engine and the deferral
/// notebook, and runs each iteration as phases over the [`Replay`]:
///
/// 1. [`start_restores`](Self::start_restores),
///    [`wake`](Self::wake) and [`rejoin`](Self::rejoin): swapped
///    sequences wait FIFO for free device frames (ahead of new arrivals),
///    then their restore transfer streams on the h2d link while the
///    scheduler keeps batching — they rejoin only when the transfer
///    lands, context intact, nothing re-prefilled;
/// 2. [`compact`](Self::compact): KV sparsity trims each decoding
///    sequence to its retained pages;
/// 3. [`admit`](Self::admit): arrived requests join the prefilling queue
///    (KV admission signal), matching each prompt against the prefix
///    index first when prefix caching is on — matched pages are shared,
///    not re-prefilled;
/// 4. [`decode_headroom`](Self::decode_headroom): one pass over the
///    decoding sequences reads each cached length by slot, builds the
///    step's decode slots and counts the pages decode growth needs; it
///    reserves them, evicting prefix-index LRU leaves and then
///    preempting latest-arrival requests (partial prefills first —
///    cheapest to recompute) and passing again; under
///    [`PreemptPolicy::SwapToHost`] a victim's exclusively-held pages
///    move to the host tier instead (eviction DMA gates the reclaiming
///    step), with per-victim recompute fallback;
/// 5. [`plan_chunks`](Self::plan_chunks): this iteration's prefill
///    chunks, FIFO under the token budget and the remaining free pages;
/// 6. [`unstall`](Self::unstall) when nothing can run, or else
///    [`execute`](Self::execute): one mixed step over the built shape;
///    every decode slot emits a token and grows by slot, every chunk
///    advances its prompt, completed prefills publish their whole-page
///    prompt pages to the index, emit their first token and join the
///    decode set. The queues are updated in place.
struct Continuous<'r, 'a> {
    r: &'r mut Replay<'a>,
    prompts: &'r [Vec<u32>],
    token_budget: usize,
    waiting: VecDeque<Seq>,
    prefilling: VecDeque<Seq>,
    running: Vec<Seq>,
    /// Swapped-out victims waiting for device frames (`bool` = was it
    /// decoding, i.e. does it rejoin `running` rather than `prefilling`).
    swapped: VecDeque<(Seq, bool)>,
    /// Restores whose transfer is still on the wire.
    restoring: RestoreQueue<(Seq, bool)>,
    index: Option<RadixPrefixIndex>,
    swap: Option<SwapEngine>,
    /// Deferral notebook: requests the scheduler looked at this iteration
    /// and could not advance, with the typed cause. Flushed as `Waiting`
    /// events at the step boundary (the instant the wait they explain
    /// ends); an iteration that re-plans without stepping drops them and
    /// re-observes next time around.
    deferrals: Vec<(u64, WaitCause, f64)>,
    /// The iteration's step: `decode_headroom` writes its decode slots,
    /// one per `running` sequence in order, and `execute` its chunks.
    /// Reused across iterations, as is `planned`.
    shape: StepShape,
    /// Each prefilling request's planned chunk (0 = none), its pages
    /// already allocated.
    planned: Vec<usize>,
    /// The page-table positions `compact` evicts from one sequence,
    /// reused for every sequence and iteration.
    evict: Vec<usize>,
}

impl<'r, 'a> Continuous<'r, 'a> {
    fn new(
        r: &'r mut Replay<'a>,
        token_budget: usize,
        waiting: VecDeque<Seq>,
        prompts: &'r [Vec<u32>],
    ) -> Self {
        let cfg = r.cfg;
        Continuous {
            index: cfg.prefix_caching.then(|| RadixPrefixIndex::new(PAGE_SIZE)),
            swap: matches!(cfg.preempt, PreemptPolicy::SwapToHost)
                .then(|| SwapEngine::new(&cfg.device, r.kv.config().page_bytes.max(1))),
            r,
            prompts,
            token_budget,
            waiting,
            prefilling: VecDeque::new(),
            running: Vec::new(),
            swapped: VecDeque::new(),
            restoring: RestoreQueue::new(),
            deferrals: Vec::new(),
            shape: StepShape::default(),
            planned: Vec::new(),
            evict: Vec::new(),
        }
    }

    /// Iterates the phases until every request has finished.
    fn run(mut self) {
        while !(self.waiting.is_empty()
            && self.prefilling.is_empty()
            && self.running.is_empty()
            && self.swapped.is_empty()
            && self.restoring.is_empty())
        {
            self.deferrals.clear();
            self.start_restores();
            self.wake();
            self.rejoin();
            self.compact();
            self.admit();
            let headroom = self.decode_headroom();
            self.plan_chunks(headroom);
            if self.running.is_empty() && self.planned.iter().all(|&c| c == 0) {
                self.unstall();
            } else {
                self.execute();
            }
        }
        self.finish();
    }

    /// Restore-on-readmission: swapped sequences have priority over new
    /// arrivals for free frames (their context is paid for — the sooner
    /// it is back, the less the host pool holds). One spare frame beyond
    /// the swapped pages lets the restored sequence take at least one
    /// decode step before any further preemption. This runs BEFORE the
    /// idle clock jump so that a drained batch starts its restores on the
    /// idle link immediately instead of deferring them behind an
    /// unrelated future arrival.
    fn start_restores(&mut self) {
        let Some(link) = self.swap.as_mut() else {
            return;
        };
        while let Some((head, _)) = self.swapped.front() {
            if self.running.len() + self.prefilling.len() + self.restoring.len() >= MAX_LIVE {
                self.deferrals
                    .push((head.id, WaitCause::MaxLiveCap, head.arrival_s));
                break;
            }
            let kv = &mut self.r.kv;
            let need = kv.seq_host_pages(head.id) + 1;
            assert!(
                need <= kv.config().num_pages,
                "KV pool ({} pages of {} tokens) cannot hold one swapped \
                 context plus headroom; enlarge kv_pages",
                kv.config().num_pages,
                kv.config().page_size
            );
            if kv.free_pages() < need {
                let want = need - kv.free_pages();
                evict_index_pages(kv, self.index.as_mut(), want);
            }
            if kv.free_pages() < need {
                self.deferrals
                    .push((head.id, WaitCause::KvPoolExhausted, head.arrival_s));
                break;
            }
            let (s, was_decoding) = self.swapped.pop_front().expect("front checked");
            let moved = kv.swap_in(s.id).expect("frames checked above");
            let r = &mut *self.r;
            let done = link.swap_in(r.clock_s, moved);
            r.metrics.record_restore(done - r.clock_s);
            r.rec.record(
                done,
                s.id,
                TraceEvent::SwapIn {
                    pages: moved,
                    initiated_s: r.clock_s,
                    link_busy_until_s: link.h2d_busy_until_s(),
                },
            );
            self.restoring.push((s, was_decoding), done);
        }
    }

    /// With nothing prefilling or decoding, jumps the clock to the next
    /// arrival or restore landing: waiting out an in-flight restore is an
    /// h2d stall on the ledger, waiting for a future arrival is idle.
    fn wake(&mut self) {
        if !(self.prefilling.is_empty() && self.running.is_empty()) {
            return;
        }
        let arrival = self.waiting.front().map_or(f64::INFINITY, |w| w.arrival_s);
        let restore = self.restoring.next_ready_s().unwrap_or(f64::INFINITY);
        self.r.wait_until(arrival.min(restore), restore <= arrival);
    }

    /// Restores whose transfer has landed rejoin the batch: decoding
    /// victims slot back into `running` in arrival order, mid-prefill
    /// victims resume at the head of the prefill queue (they are the
    /// oldest work there).
    fn rejoin(&mut self) {
        for (s, was_decoding) in self.restoring.pop_ready(self.r.clock_s) {
            if was_decoding {
                let pos = self
                    .running
                    .iter()
                    .position(|r| r.arrival_s > s.arrival_s)
                    .unwrap_or(self.running.len());
                self.running.insert(pos, s);
            } else {
                self.prefilling.push_front(s);
            }
        }
    }

    /// KV sparsity: compacts every decoding sequence's cache to its
    /// policy-retained page set before admission, so the freed frames are
    /// in the admission gate's supply. Running sequences are fully
    /// device-resident (restores rejoin only after their transfer lands),
    /// and only fully-written interior pages are selected, so the release
    /// cannot fail. Shared or prefix-pinned pages leave this sequence's
    /// table but stay resident for their other holders — `freed` counts
    /// frames actually returned to the pool.
    fn compact(&mut self) {
        let r = &mut *self.r;
        let sparsity = r.cfg.kv_sparsity;
        if sparsity.is_dense() {
            return;
        }
        let evict = &mut self.evict;
        for s in &self.running {
            let slot = s.running_slot();
            let len = r.kv.slot_tokens(slot).expect("running seq holds pages");
            sparsity.evict_positions_into(len, PAGE_SIZE, evict);
            if evict.is_empty() {
                continue;
            }
            let freed =
                r.kv.release_slot_positions(slot, evict)
                    .expect("retained-set eviction picks legal pages");
            r.metrics.record_sparsity_eviction(evict.len(), freed);
            r.rec.record(
                r.clock_s,
                s.id,
                TraceEvent::SparsityEvict { pages: evict.len() },
            );
        }
    }

    /// Admission: FIFO prefix of arrived requests, capped by the live-set
    /// bound; the KV pool's free-page signal (first chunk + one decode
    /// slot) is the other admission gate. The prefix index is the
    /// marginal page supply: its cold leaves are evicted before an
    /// admission is refused.
    fn admit(&mut self) {
        while let Some(w) = self.waiting.front() {
            if w.arrival_s > self.r.clock_s {
                break;
            }
            if self.running.len() + self.prefilling.len() + self.restoring.len() >= MAX_LIVE {
                self.deferrals
                    .push((w.id, WaitCause::MaxLiveCap, w.arrival_s));
                break;
            }
            let first = w.ctx().clamp(1, PREFILL_CHUNK);
            let kv = &mut self.r.kv;
            if !kv.can_admit(first + 1) {
                let want = kv
                    .config()
                    .pages_for(first + 1)
                    .saturating_sub(kv.free_pages());
                evict_index_pages(kv, self.index.as_mut(), want);
            }
            if !kv.can_admit(first + 1) {
                assert!(
                    !(self.prefilling.is_empty()
                        && self.running.is_empty()
                        && self.swapped.is_empty()
                        && self.restoring.is_empty()
                        && self.index.as_ref().is_none_or(RadixPrefixIndex::is_empty)),
                    "KV pool ({} pages of {} tokens) cannot fit a single \
                     {first}-token prefill chunk; enlarge kv_pages",
                    kv.config().num_pages,
                    kv.config().page_size
                );
                self.deferrals
                    .push((w.id, WaitCause::KvPoolExhausted, w.arrival_s));
                break;
            }
            let mut w = self.waiting.pop_front().expect("front checked");
            self.r.rec.record(
                self.r.clock_s,
                w.id,
                TraceEvent::Admitted {
                    arrival_s: w.arrival_s,
                },
            );
            self.share_prefix(&mut w);
            self.prefilling.push_back(w);
        }
    }

    /// With prefix caching on, matches an admitted prompt against the
    /// prefix index (never past its second-to-last token — even a fully
    /// cached prompt must prefill something to produce first-token
    /// logits), page-granularly, and shares the matched pages instead of
    /// prefilling them.
    fn share_prefix(&mut self, w: &mut Seq) {
        let Some(ix) = self.index.as_mut() else {
            return;
        };
        let r = &mut *self.r;
        let page = PAGE_SIZE;
        let m = ix.match_prefix(&self.prompts[w.id as usize]);
        let matched = m.tokens.min(w.prompt.saturating_sub(1) / page * page);
        w.prefix_hit = matched > 0;
        if w.prefix_hit {
            r.kv.alloc_shared(w.id, &m.pages[..matched / page], matched)
                .expect("matched pages are live in the pool");
            w.prefilled = matched;
            // Cache-served rows are never re-run through the model, so
            // they come off any recompute debt.
            w.rework = w.rework.saturating_sub(matched);
        }
        r.metrics.record_prefix_admission(matched, w.prefix_hit);
        if w.prefix_hit {
            r.rec.record(
                r.clock_s,
                w.id,
                TraceEvent::PrefixHit {
                    pages: matched / page,
                    tokens: matched,
                },
            );
        }
    }

    /// Decode headroom and the step's decode slots, in one pass over
    /// `running`: each sequence's cached length, read by slot, gives its
    /// [`DecodeSlot`] in the step's shape, and every slot continuing past
    /// this step whose context sits on a page boundary needs one fresh
    /// page. Evicts prefix-index leaves, then preempts until the pool can
    /// honour the step, passing again after each preemption: partial
    /// prefills first, then the latest-arrival decoding request —
    /// cached-but-cold prefixes are always cheaper to give up than live
    /// progress. Returns the pages reserved.
    fn decode_headroom(&mut self) -> usize {
        let sparsity = self.r.cfg.kv_sparsity;
        loop {
            // Page-boundary test on the *cached* length (what the pool
            // holds after sparsity eviction), not the logical context —
            // eviction shrinks the cache page-aligned, so the cadence is
            // the same, but the cached length is what `extend_slot` sees.
            let kv = &mut self.r.kv;
            let decode = &mut self.shape.decode;
            decode.clear();
            let mut needed = 0;
            for s in &self.running {
                let cached = kv
                    .slot_tokens(s.running_slot())
                    .expect("running seq holds pages");
                needed += usize::from(!will_finish(s) && cached.is_multiple_of(PAGE_SIZE));
                decode.push(DecodeSlot {
                    attended: sparsity.attended(cached, PAGE_SIZE),
                    cached,
                });
            }
            if needed <= kv.free_pages() {
                return needed;
            }
            if evict_index_pages(kv, self.index.as_mut(), needed - kv.free_pages()) {
                continue;
            }
            if let Some(pos) = (0..self.prefilling.len())
                .rev()
                .find(|&i| self.prefilling[i].prefilled > 0)
            {
                let victim = self.prefilling.remove(pos).expect("position found");
                self.preempt(victim, false);
            } else if let Some(victim) = self.running.pop() {
                self.preempt(victim, true);
            } else {
                unreachable!("headroom is only needed by running requests");
            }
        }
    }

    /// Chunk planning: head-of-line prefills take the budget left after
    /// the committed decode slots, page-checked against the free pages
    /// not reserved as decode headroom. A chunk that completes a prompt
    /// also reserves the page its first generated token may need. Chunks
    /// shrink to what the pages allow; the head of the queue stalls
    /// rather than being overtaken (FIFO fairness). Writes each prefilling
    /// request's planned chunk (0 = none) into `planned`, its pages
    /// already allocated.
    fn plan_chunks(&mut self, decode_headroom: usize) {
        let kv = &mut self.r.kv;
        let page = kv.config().page_size;
        let mut virtual_free = kv.free_pages() - decode_headroom;
        let mut rows = self.running.len();
        let planned = &mut self.planned;
        planned.clear();
        planned.resize(self.prefilling.len(), 0);
        for (i, s) in self.prefilling.iter().enumerate() {
            // Never stall the whole system on a budget smaller than one
            // chunk: an oversized head chunk runs alone.
            let alone = self.running.is_empty() && i == 0;
            if rows >= self.token_budget && !alone {
                self.deferrals
                    .push((s.id, WaitCause::TokenBudgetFull, s.arrival_s));
                break;
            }
            let remaining = s.ctx().max(1) - s.prefilled;
            let mut c = if alone {
                remaining.min(PREFILL_CHUNK)
            } else {
                remaining.min(PREFILL_CHUNK).min(self.token_budget - rows)
            };
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
                let cause = if i == 0 {
                    WaitCause::KvPoolExhausted
                } else {
                    WaitCause::HeadOfLinePrefill
                };
                self.deferrals.push((s.id, cause, s.arrival_s));
                break;
            }
        }
    }

    /// Stalled with no decode work: reclaims prefix-cache pages, then
    /// frees a later partial prefill so the head can make progress next
    /// iteration. With restores in flight the frames are merely in
    /// transit — it jumps to the transfer's completion instead. Waiting on
    /// *time* (a future arrival, an in-flight restore) is the only reason
    /// to idle; anything else blocked here is blocked on frames and must
    /// reclaim some, down to demoting a swapped victim whose still-shared
    /// device pages hold the pool open — otherwise a run left with only
    /// swapped sequences and too few free frames to restore would spin
    /// forever. Each call takes one of these actions and returns.
    fn unstall(&mut self) {
        // Deferring to the next iteration's wake-up is only sound when
        // that jump actually advances the clock: a *future* arrival
        // qualifies, but an in-flight restore does not if the head of
        // `waiting` already arrived — min(arrival, restore) then clamps
        // to the past arrival and the loop would spin. That case falls
        // through to the explicit restore-completion jump below instead.
        let clock_s = self.r.clock_s;
        let future_arrival = self.waiting.front().is_some_and(|w| w.arrival_s > clock_s);
        if self.prefilling.is_empty() && future_arrival {
            return; // idle: the next iteration jumps to the next wake-up
        }
        if evict_index_pages(&mut self.r.kv, self.index.as_mut(), 1) {
            return;
        }
        if let Some(pos) = (1..self.prefilling.len())
            .rev()
            .find(|&i| self.prefilling[i].prefilled > 0)
        {
            let victim = self.prefilling.remove(pos).expect("position found");
            self.preempt(victim, false);
            return;
        }
        if let Some(ready) = self.restoring.next_ready_s() {
            if self.r.wait_until(ready, true) {
                // The whole scheduler waited out the transfer; pin the
                // wait on the blocked head — a stalled prefill, or an
                // arrived request the pool kept out.
                let head = self
                    .prefilling
                    .front()
                    .or_else(|| self.waiting.front().filter(|w| w.arrival_s <= ready));
                if let Some(h) = head {
                    let event = TraceEvent::Waiting {
                        cause: WaitCause::RestoreInFlight,
                        since_s: h.arrival_s,
                    };
                    self.r.rec.record(ready, h.id, event);
                }
            }
            return;
        }
        if let Some((victim, was_decoding)) = self.swapped.pop_back() {
            // Last resort: demote the youngest swapped victim to
            // recompute so its host pages stop holding the books open
            // (its shared device pages free with it). Its preserved
            // context will be re-prefilled after all, so the savings
            // recorded at swap time are handed back.
            let r = &mut *self.r;
            let preserved = host_written_tokens(&r.kv, victim.id);
            r.metrics.record_swap_demotion(preserved);
            r.rec.record(
                r.clock_s,
                victim.id,
                TraceEvent::Preempted {
                    policy: "swap-demotion",
                },
            );
            self.requeue(victim, was_decoding);
            return;
        }
        let kv = self.r.kv.config();
        panic!(
            "KV pool ({} pages of {} tokens) cannot fit one prefill chunk; \
             enlarge kv_pages",
            kv.num_pages, kv.page_size
        );
    }

    /// One mixed iteration: padding-free, so processed == real rows. Each
    /// decode slot carries (attended, cached): under a sparse policy the
    /// attention read set is the retained pages only, micro-tile packed
    /// by the engine, so the step's cost scales with attended rather than
    /// cached tokens. Then every decode slot emits a token and every
    /// planned chunk lands. The shape's decode slots come from
    /// [`decode_headroom`](Self::decode_headroom); this adds the chunks.
    fn execute(&mut self) {
        let r = &mut *self.r;
        let page = PAGE_SIZE;
        let chunks = self
            .prefilling
            .iter()
            .zip(&self.planned)
            .filter(|&(_, &c)| c > 0)
            .map(|(s, &c)| (c, s.prefilled + c));
        self.shape.chunks.clear();
        self.shape.chunks.extend(chunks);
        let shape = &self.shape;
        if r.cfg.verify_invariants {
            // The safety property of tiering: a decode step must never
            // read KV that currently lives across the link.
            for s in &self.running {
                assert_eq!(
                    r.kv.seq_resident(s.id),
                    Some(true),
                    "decode step would read a host-resident page of seq {}",
                    s.id
                );
            }
        }
        r.step(shape, shape.chunk_tokens(), shape.decode_slots());
        // The waits observed while planning this step end at its boundary:
        // flush them here so the gap each one explains telescopes exactly
        // into the blame tiling.
        for (lane, cause, since_s) in self.deferrals.drain(..) {
            r.rec
                .record(r.clock_s, lane, TraceEvent::Waiting { cause, since_s });
        }
        // Prefill rows re-deriving KV discarded at a recompute
        // preemption pay their debt here: they cost GPU time and count
        // in `prefill_tokens`, but not in the served-token goodput.
        let rework_rows: usize = self
            .prefilling
            .iter_mut()
            .zip(&self.planned)
            .map(|(s, &c)| {
                let re = c.min(s.rework);
                s.rework -= re;
                re
            })
            .sum();
        r.metrics.record_recompute_rework(rework_rows);
        r.metrics
            .record_attention(shape.attended_tokens(), shape.cached_tokens());
        if self.swap.is_some() {
            r.metrics.record_host_occupancy(r.kv.host_occupancy());
        }

        // Decode slots each emitted one token; the survivors grow by it in
        // place.
        let mut itl = ItlRun::default();
        let mut slots = shape.decode.iter();
        self.running.retain_mut(|s| {
            let slot = slots.next().expect("one decode slot per running seq");
            let event = TraceEvent::DecodeStep {
                attended: slot.attended,
                cached: slot.cached,
            };
            if r.emit(s, &mut itl, event) {
                r.kv.free(s.id).expect("completed request held pages");
                return false;
            }
            r.kv.extend_slot(s.running_slot(), 1)
                .expect("headroom reserved before step");
            true
        });
        // Chunks landed; completed prefills publish their whole-page
        // prompt pages to the prefix index (before any free — published
        // pages outlive the request via the index's retains), emit their
        // first token and join the decode set (in FIFO order, after the
        // older survivors).
        let mut planned = self.planned.iter();
        self.prefilling.retain_mut(|s| {
            let c = *planned.next().expect("one plan per prefilling seq");
            if c > 0 {
                r.rec
                    .record(r.clock_s, s.id, TraceEvent::PrefillChunk { tokens: c });
            }
            s.prefilled += c;
            if s.prefilled < s.ctx().max(1) {
                return true;
            }
            if let Some(ix) = self.index.as_mut() {
                let full = s.prompt / page;
                if full > 0 {
                    let pages =
                        r.kv.seq_pages(s.id).expect("prefilled seq holds pages")[..full].to_vec();
                    let ids = &self.prompts[s.id as usize];
                    let adopted = ix.insert(&ids[..full * page], &pages);
                    if !adopted.is_empty() {
                        r.kv.retain_pages(&adopted)
                            .expect("published pages are live");
                    }
                }
            }
            if r.emit(s, &mut itl, TraceEvent::FirstToken) {
                r.kv.free(s.id).expect("completed request held pages");
            } else {
                let slot = r.kv.slot(s.id).expect("prefilled seq holds pages");
                r.kv.extend_slot(slot, 1)
                    .expect("carry page reserved at planning");
                s.slot = Some(slot);
                self.running.push(*s);
            }
            false
        });
        itl.flush(&mut r.metrics);

        if r.cfg.verify_invariants {
            r.kv.check_invariants()
                .expect("kv invariants after iteration");
            if let Some(ix) = self.index.as_ref() {
                ix.check_invariants()
                    .expect("prefix invariants after iteration");
            }
        }
    }

    /// Preempts one victim under the configured policy. With a swap
    /// engine, its exclusively-held pages move to the host tier
    /// (decode-adjacent first; shared and prefix-pinned pages stay for
    /// their other holders) — the eviction DMA's completion gates the
    /// virtual clock because the freed frames are rewritten by the very
    /// step this preemption makes room for. A victim with nothing
    /// swappable, or one the host pool cannot hold, falls back to
    /// recompute.
    fn preempt(&mut self, victim: Seq, was_decoding: bool) {
        let r = &mut *self.r;
        let policy = match self.swap.as_mut() {
            None => "recompute",
            Some(link) => {
                let descs: Vec<PageDesc> =
                    r.kv.seq_pages(victim.id)
                        .expect("victim held pages")
                        .iter()
                        .map(|&p| PageDesc {
                            page: p,
                            refs: r.kv.page_refs(p),
                            ext_refs: r.kv.page_ext_refs(p),
                        })
                        .collect();
                let plan = plan_swap_out(&descs);
                if !plan.is_empty() && plan.len() <= r.kv.host_free_pages() {
                    // Savings = written slots on the pages actually moved:
                    // the KV recompute would have to re-derive. Shared
                    // prefix pages stay resident either way, so they are
                    // not counted.
                    let saved: usize = plan.iter().map(|&p| r.kv.page_written(p)).sum();
                    let initiated_s = r.clock_s;
                    r.kv.swap_out(victim.id, &plan).expect("plan is legal");
                    r.clock_s = link.swap_out(initiated_s, plan.len());
                    // The eviction DMA gates the reclaiming step: the
                    // clock advance is a d2h stall on the ledger.
                    let stall_s = r.clock_s - initiated_s;
                    r.metrics.charge(|l| l.charge_d2h_stall(stall_s));
                    r.metrics.record_swap_preempt(saved);
                    r.rec.record(
                        initiated_s,
                        victim.id,
                        TraceEvent::Preempted {
                            policy: "swap-to-host",
                        },
                    );
                    r.rec.record(
                        r.clock_s,
                        victim.id,
                        TraceEvent::SwapOut {
                            pages: plan.len(),
                            initiated_s,
                            link_busy_until_s: link.d2h_busy_until_s(),
                        },
                    );
                    self.swapped.push_back((victim, was_decoding));
                    return;
                }
                r.metrics.record_swap_fallback();
                "swap-fallback"
            }
        };
        r.rec
            .record(r.clock_s, victim.id, TraceEvent::Preempted { policy });
        self.requeue(victim, was_decoding);
    }

    /// The recompute-preemption protocol: frees the victim's pages, resets
    /// its chunked-prefill progress (re-admission re-prefills `prompt +
    /// generated` from scratch) and returns it to the head of the waiting
    /// queue so earlier arrivals re-admit first. Every context row the
    /// system had already run through the model — the full context for a
    /// decoding victim, the prefill progress otherwise — becomes rework
    /// debt, so the re-derivation is metered as overhead rather than
    /// served work.
    fn requeue(&mut self, mut victim: Seq, was_decoding: bool) {
        self.r.kv.preempt(victim.id).expect("victim held pages");
        victim.slot = None;
        victim.rework += if was_decoding {
            // The final re-prefill row doubles as the next decode step —
            // its logits emit a fresh token — so it stays served work.
            victim.ctx().saturating_sub(1)
        } else {
            victim.prefilled
        };
        victim.prefilled = 0;
        self.waiting.push_front(victim);
    }

    /// End of run: snapshots the transfer counters and the index's, then
    /// releases the index's page pins so the pool drains leak-free.
    fn finish(self) {
        if let Some(link) = self.swap {
            self.r.metrics.set_swap(link.stats());
        }
        if let Some(mut ix) = self.index {
            self.r.metrics.set_prefix(ix.stats());
            let held = ix.drain_all();
            if !held.is_empty() {
                self.r
                    .kv
                    .release_pages(&held)
                    .expect("index pages were retained");
            }
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
            builder().host_pages(8).build().unwrap_err(),
            ConfigError::HostPagesWithoutSwap
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
        let e: &dyn std::error::Error = &ConfigError::ZeroKvPages;
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

    #[test]
    fn blame_table_holds_one_slot_per_kept_lane() {
        const N: usize = 100;
        // A disabled sink allocates no table, and recording grows none.
        let off = TraceSink::disabled();
        let mut rec = Recorder::new(&off, 0, None, N);
        for lane in 0..N as u64 {
            rec.record(1.0, lane, TraceEvent::FirstToken);
        }
        assert_eq!(rec.blame.slots(), 0);
        assert!(rec.finish().1.is_empty());
        for (every, slots) in [(1, N), (3, 34), (7, 15)] {
            let sink = TraceSink::enabled().with_sampling(every);
            let mut rec = Recorder::new(&sink, 0, None, N);
            assert_eq!(rec.blame.slots(), slots, "1-in-{every}");
            for lane in 0..N as u64 {
                rec.record(1.0, lane, TraceEvent::FirstToken);
            }
            assert_eq!(rec.blame.slots(), slots, "1-in-{every} grew");
            let spans = rec.finish().1;
            assert_eq!(spans.len(), slots);
            assert!(spans.keys().all(|lane| lane % every == 0));
        }
    }
}
