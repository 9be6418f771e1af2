//! `pit-serve` — a concurrent serving runtime with padding-free
//! continuous batching.
//!
//! The paper's Figure 2c shows where serving throughput goes to die:
//! padded batches process `batch × max_len` tokens while users only sent
//! `Σ len` of them. Because PIT's permutation-invariant micro-tile kernels
//! operate at *token* granularity, a serving scheduler is free to pack
//! whole requests back-to-back up to a token budget — no rectangle, no
//! waste — and the §5.6 observation (shapes repeat, sparsity patterns
//! don't) makes one shared per-shape JIT cache the right concurrency
//! design: workers race on a bounded LRU cache of Algorithm-1 selections
//! instead of re-searching per batch.
//!
//! The crate is std-only (no external runtime), in five layers over one
//! step pricer: every serving step — a decode-replay iteration, a
//! virtual-clock prefill batch, a threaded worker's batch — charges its
//! shape's JIT selection, then the layer stack (`pit_models::decode`), on
//! an engine its replay or worker owns, and reads the engine's ledger into
//! one `pit_trace::StepSample`.
//!
//! - [`queue`] — bounded MPMC admission queue; full queue = backpressure.
//! - [`scheduler`] — [`BatchPolicy`]: padding-free token-budget packing
//!   vs. padded-to-longest vs. TurboTransformers-style bucketing, plus the
//!   [`FormedBatch`] accounting both the metrics and the executor consume.
//! - [`runtime`] — the threaded closed-loop runtime ([`serve_trace`]), the
//!   threaded open-loop replay ([`serve_trace_arrivals`]) that admits
//!   requests at their `ArrivalTrace` timestamps, optionally publishing
//!   into a live `MetricsHub`, and its deterministic
//!   virtual-clock twin ([`simulate_trace_arrivals`]; arrivals all at time
//!   zero replay the closed-loop drain). Each worker, and the virtual
//!   clock, prices its batches on an engine of its own; the workers share
//!   one `JitCache`.
//! - [`decode`] — decode-phase continuous batching over `pit_kv`'s paged
//!   KV cache: requests prefill once then rejoin the batch every
//!   iteration, scheduled under a token budget *and* a KV-page budget,
//!   against a static-padded rectangle baseline. Runs are configured
//!   through the validated [`DecodeServeConfig::builder`] — inconsistent
//!   combinations are [`decode::ConfigError`]s at construction, not
//!   panics mid-run. With prefix caching on, admission consults
//!   `pit_prefix`'s radix index, shares matched prompt pages
//!   (refcounted), prefills only the suffix, and publishes completed
//!   prompts back to the index; index LRU leaves are evicted when decode
//!   allocation contends for free pages. Under KV pressure,
//!   [`decode::PreemptPolicy`] picks what eviction costs: recompute
//!   (vLLM-style re-prefill) or swap-to-host (`pit_swap` — victim pages
//!   cross the PCIe link into `pit_kv`'s host tier and stream back on
//!   re-admission, restore latency overlapping later batches). A
//!   per-sequence [`decode::KvSparsityPolicy`] (StreamingLLM sink+window,
//!   H2O heavy hitters) trims each decode slot's attention read set and
//!   evicts pages outside the retained set, so attention cost scales
//!   with attended — not cached — tokens and the smaller footprint
//!   means fewer preemptions at equal KV budget.
//! - [`metrics`] — p50/p95/p99 latency, tokens/s on the modelled device,
//!   padding-waste ratio, queue depth, rejected-request count and cache
//!   hit rate in [`ServingReport`]; TTFT/inter-token percentiles (TTFT
//!   split by prefix-cache hit/miss), prefix hit rate and cache-served
//!   prompt tokens, KV occupancy, fragmentation, preemptions and
//!   attended-vs-cached attention footprint in [`DecodeReport`], which
//!   serializes whole via `DecodeReport::to_json`. Latency distributions
//!   stream into `pit_trace::LatencySketch`es (bounded memory, 1%
//!   relative-error percentiles); the exact
//!   [`Percentiles::from_unsorted`] survives as the test oracle. Both
//!   reports also carry a `pit_trace::DeviceLedger` — every modelled
//!   cost attributed into a fixed taxonomy (prefill/decode attention,
//!   dense GEMM, sparse conversion, JIT search, swap stalls, idle) with
//!   exact conservation — plus the derived utilization (busy fraction,
//!   MFU, link bytes), and render as Prometheus text via
//!   `ServingReport::exposition` / `DecodeReport::exposition`.
//!
//! Observability: [`decode::simulate_decode_trace_traced`] records every
//! request-lifecycle event (admission, prefill chunks, tokens,
//! preemptions, swap transfers, completion) into a `pit_trace::TraceSink`
//! on the virtual clock. An enabled sink adds a per-request
//! queue/prefill/decode/stall breakdown to the report and can be exported
//! to Chrome `trace_event` JSON via `pit_trace::chrome_trace_json`; the
//! default entry points pass a disabled sink, whose recording cost is one
//! branch per event.

pub mod decode;
pub mod metrics;
pub mod queue;
pub mod runtime;
pub mod scheduler;
mod step;

pub use decode::{
    simulate_decode_trace, simulate_decode_trace_observed, simulate_decode_trace_traced,
    ConfigError, DecodePolicy, DecodeServeConfig, DecodeServeConfigBuilder, KvSparsityPolicy,
    PreemptPolicy,
};
pub use metrics::{CacheStats, DecodeReport, Percentiles, ServingReport};
pub use queue::BoundedQueue;
pub use runtime::{
    serve_trace, serve_trace_arrivals, simulate_trace_arrivals, AdmissionMode, ServeConfig,
};
pub use scheduler::{BatchPolicy, FormedBatch};
