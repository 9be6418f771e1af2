//! Serving metrics: latency percentiles, throughput, padding waste, queue
//! depth and JIT-cache effectiveness.
//!
//! Two clocks coexist by design. *Wall-clock* times (request latency,
//! run duration) come from the real threaded runtime — queueing, batching
//! windows and worker contention are genuinely measured. *GPU seconds*
//! come from the analytic cost model — each formed batch's modelled
//! execution time — so throughput (`real tokens / modelled GPU seconds`)
//! reflects the device the cost model simulates rather than the host CPU
//! running the simulation.

use crate::scheduler::FormedBatch;
use pit_trace::{
    BlameAggregate, BlameBreakdown, BlameSummary, BreakdownSummary, DeviceLedger, Exposition,
    LatencySketch, MetricsHub, StepSample, Utilization,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// p50/p95/p99 of a latency sample (seconds).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Computes exact percentiles from an unsorted sample; zeros when
    /// empty. NaN samples are rejected rather than panicking mid-sort: a
    /// debug assertion fires (the caller fed a poisoned latency), release
    /// builds filter them out and rank the rest.
    ///
    /// The live collectors feed [`Percentiles::from_sketch`] instead; this
    /// exact form is the test oracle the sketch is validated against.
    pub fn from_unsorted(samples: Vec<f64>) -> Self {
        debug_assert!(
            samples.iter().all(|v| !v.is_nan()),
            "NaN latency in percentile sample"
        );
        let mut samples: Vec<f64> = samples.into_iter().filter(|v| !v.is_nan()).collect();
        if samples.is_empty() {
            return Percentiles {
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        samples.sort_by(f64::total_cmp);
        let pick = |q: f64| {
            let idx = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
            samples[idx]
        };
        Percentiles {
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
        }
    }

    /// Reads the percentile triple out of a streaming sketch (same rank
    /// convention as [`Percentiles::from_unsorted`], each within the
    /// sketch's relative-error bound of the exact statistic).
    pub fn from_sketch(sketch: &LatencySketch) -> Self {
        Percentiles {
            p50: sketch.quantile(0.50),
            p95: sketch.quantile(0.95),
            p99: sketch.quantile(0.99),
        }
    }
}

/// JIT-cache counters at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran Algorithm-1 selection.
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Snapshots the counters of a live cache.
    pub fn of(cache: &pit_core::jit::JitCache) -> Self {
        CacheStats {
            hits: cache.hits(),
            misses: cache.misses(),
            evictions: cache.evictions(),
        }
    }

    /// Hit fraction of all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe collector the runtime writes into while serving.
///
/// Latencies stream into a [`LatencySketch`], so the collector's memory
/// is bounded by the latency dynamic range — not by the request count.
#[derive(Debug, Default)]
pub struct Metrics {
    latencies_s: Mutex<LatencySketch>,
    real_tokens: AtomicUsize,
    padded_tokens: AtomicUsize,
    batches: AtomicUsize,
    rejected: AtomicUsize,
    ledger: Mutex<DeviceLedger>,
}

impl Metrics {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed batch and charges its modelled GPU time,
    /// split by category, to the device-time ledger.
    pub fn record_batch(&self, batch: &FormedBatch, sample: &StepSample) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.real_tokens
            .fetch_add(batch.real_tokens, Ordering::Relaxed);
        self.padded_tokens
            .fetch_add(batch.padded_tokens, Ordering::Relaxed);
        self.ledger
            .lock()
            .expect("metrics poisoned")
            .charge_step(sample);
    }

    /// Records one request's end-to-end latency (seconds).
    pub fn record_latency(&self, latency_s: f64) {
        self.latencies_s
            .lock()
            .expect("metrics poisoned")
            .record(latency_s);
    }

    /// Records one request turned away at admission (reject-when-full
    /// backpressure instead of blocking).
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Charges virtual-clock seconds the modelled device sat idle
    /// (deterministic replays only; the threaded runtime's device clock
    /// is busy-only).
    pub fn charge_idle(&self, seconds: f64) {
        self.ledger
            .lock()
            .expect("metrics poisoned")
            .charge_idle(seconds);
    }

    /// Freezes the collector into a report.
    pub fn report(
        &self,
        policy: &str,
        wall_time_s: f64,
        queue_high_water: usize,
        cache: CacheStats,
    ) -> ServingReport {
        let latencies = self.latencies_s.lock().expect("metrics poisoned").clone();
        let ledger = self.ledger.lock().expect("metrics poisoned").clone();
        ServingReport {
            policy: policy.to_string(),
            requests: latencies.count() as usize,
            batches: self.batches.load(Ordering::Relaxed),
            real_tokens: self.real_tokens.load(Ordering::Relaxed),
            padded_tokens: self.padded_tokens.load(Ordering::Relaxed),
            gpu_time_s: ledger.busy_s(),
            wall_time_s,
            latency: Percentiles::from_sketch(&latencies),
            queue_high_water,
            rejected: self.rejected.load(Ordering::Relaxed),
            windows: None,
            cache,
            blame: None,
            utilization: ledger.utilization(),
            ledger,
        }
    }
}

/// Everything one serving run produced, ready to print or compare.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Scheduler policy name.
    pub policy: String,
    /// Requests completed.
    pub requests: usize,
    /// Batches formed and executed.
    pub batches: usize,
    /// Real tokens served.
    pub real_tokens: usize,
    /// Tokens the modelled GPU processed (≥ real).
    pub padded_tokens: usize,
    /// Modelled GPU busy time (seconds) across all batches.
    pub gpu_time_s: f64,
    /// Wall-clock duration of the run (seconds).
    pub wall_time_s: f64,
    /// Per-request latency percentiles (seconds; wall clock in the
    /// threaded runtime, virtual drain time in the synchronous simulator).
    pub latency: Percentiles,
    /// Deepest the admission queue got.
    pub queue_high_water: usize,
    /// Requests turned away at admission (always 0 under blocking
    /// backpressure; counts drops under reject-when-full admission).
    pub rejected: usize,
    /// Per-window admitted/rejected/queue-depth series for open-loop
    /// replays (`None` unless `ServeConfig::arrival_window_s` was set).
    pub windows: Option<Vec<pit_trace::WindowStat>>,
    /// Shared JIT-cache counters for the run.
    pub cache: CacheStats,
    /// Causal blame digest: per-cause shares of queue latency (`None`
    /// unless the run attributed its waits — the deterministic replay
    /// paths do; the threaded runtime keeps wall-clock latencies only).
    pub blame: Option<BlameSummary>,
    /// Device-time ledger: categories tile busy time exactly, and busy +
    /// stalls + idle tile the virtual clock (`ledger.conserved()`).
    pub ledger: DeviceLedger,
    /// Busy fraction, FLOP efficiency and link traffic from the ledger.
    pub utilization: Utilization,
}

impl ServingReport {
    /// Fraction of processed tokens that were padding.
    pub fn padding_waste(&self) -> f64 {
        pit_workloads::padding_waste(self.real_tokens, self.padded_tokens)
    }

    /// Served throughput on the modelled device: real tokens per modelled
    /// GPU second.
    pub fn tokens_per_s(&self) -> f64 {
        if self.gpu_time_s <= 0.0 {
            return 0.0;
        }
        self.real_tokens as f64 / self.gpu_time_s
    }

    /// Mean requests per formed batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.requests as f64 / self.batches as f64
    }

    /// The run's metrics as a Prometheus text exposition (counters,
    /// gauges and sketch-backed latency quantiles), ready to write next
    /// to the bench JSON.
    pub fn exposition(&self) -> Exposition {
        let mut out = Exposition::new();
        out.counter(
            "pit_requests_total",
            "Requests completed",
            self.requests as f64,
        );
        out.counter(
            "pit_rejected_total",
            "Requests shed at admission",
            self.rejected as f64,
        );
        out.counter(
            "pit_batches_total",
            "Batches formed and executed",
            self.batches as f64,
        );
        out.counter(
            "pit_real_tokens_total",
            "Real tokens served",
            self.real_tokens as f64,
        );
        out.counter(
            "pit_processed_tokens_total",
            "Token rows the modelled GPU processed",
            self.padded_tokens as f64,
        );
        out.gauge(
            "pit_padding_waste_fraction",
            "Fraction of processed tokens that were padding",
            self.padding_waste(),
        );
        out.gauge(
            "pit_tokens_per_second",
            "Real tokens per modelled GPU second",
            self.tokens_per_s(),
        );
        out.summary_quantiles(
            "pit_request_latency_seconds",
            "End-to-end request latency (sketch-backed quantiles)",
            &[
                (0.50, self.latency.p50),
                (0.95, self.latency.p95),
                (0.99, self.latency.p99),
            ],
            None,
            Some(self.requests as u64),
        );
        if let Some(b) = &self.blame {
            blame_exposition(&mut out, b);
        }
        ledger_exposition(&mut out, &self.ledger);
        out
    }
}

/// Appends the causal-blame families to an exposition (shared by both
/// report kinds): per contributing cause, the total attributed
/// end-to-end seconds and the per-request contribution quantiles.
fn blame_exposition(out: &mut Exposition, blame: &BlameSummary) {
    for c in &blame.causes {
        out.counter(
            &format!("pit_blame_{}_seconds_total", c.cause),
            "End-to-end seconds attributed to this cause",
            c.e2e_s,
        );
        out.summary_quantiles(
            &format!("pit_blame_{}_per_request_seconds", c.cause),
            "Per-request seconds this cause contributed (sketch-backed)",
            &[(0.50, c.p50_s), (0.95, c.p95_s), (0.99, c.p99_s)],
            Some(c.e2e_s),
            Some(c.requests),
        );
    }
}

/// Appends the device-time ledger's families to an exposition (shared by
/// both report kinds; the family set lives on [`DeviceLedger`] so the
/// live metrics hub emits the identical names).
fn ledger_exposition(out: &mut Exposition, ledger: &DeviceLedger) {
    ledger.exposition_into(out);
}

impl fmt::Display for ServingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {} requests in {} batches ({:.1} req/batch)",
            self.policy,
            self.requests,
            self.batches,
            self.mean_batch_size()
        )?;
        writeln!(
            f,
            "  tokens: {} real / {} processed  (padding waste {:.1}%)",
            self.real_tokens,
            self.padded_tokens,
            self.padding_waste() * 100.0
        )?;
        writeln!(
            f,
            "  throughput: {:.0} tokens/s over {:.3} modelled GPU-s",
            self.tokens_per_s(),
            self.gpu_time_s
        )?;
        writeln!(
            f,
            "  latency: p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms",
            self.latency.p50 * 1e3,
            self.latency.p95 * 1e3,
            self.latency.p99 * 1e3
        )?;
        write!(
            f,
            "  queue high-water {} ({} rejected); jit cache: {} hits / {} misses / {} evictions ({:.0}% hit rate)",
            self.queue_high_water,
            self.rejected,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.hit_rate() * 100.0
        )?;
        write!(
            f,
            "\n  device: busy {:.1}% of {:.4} s virtual clock; mfu {:.1}%",
            self.utilization.busy_fraction * 100.0,
            self.ledger.clock_s(),
            self.utilization.mfu * 100.0,
        )?;
        if let Some(b) = &self.blame {
            write!(f, "\n  {b}")?;
        }
        if let Some(w) = &self.windows {
            let width = if w.len() >= 2 {
                w[1].start_s - w[0].start_s
            } else {
                0.0
            };
            let busiest = w.iter().max_by_key(|s| s.admitted);
            write!(
                f,
                "\n  arrival windows: {} x {:.1}s; busiest admitted {} (peak queue depth {})",
                w.len(),
                width,
                busiest.map_or(0, |s| s.admitted),
                busiest.map_or(0, |s| s.peak_queue_depth),
            )?;
        }
        Ok(())
    }
}

/// Single-threaded collector for the decode runtime's per-iteration
/// accounting. The decode engine is an iteration loop on one modelled
/// device, so no interior mutability is needed.
///
/// Every latency distribution streams into a [`LatencySketch`]: the
/// collector's footprint is O(latency dynamic range), not O(requests), so
/// million-request replays don't accumulate sample vectors. With a live
/// [`MetricsHub`] attached, every ledger charge and the KV occupancy
/// gauge reach the hub in the same call, so its ledger mirrors the
/// report's.
#[derive(Debug, Default)]
pub struct DecodeMetrics<'h> {
    ttft_s: LatencySketch,
    ttft_hit_s: LatencySketch,
    ttft_miss_s: LatencySketch,
    itl_s: LatencySketch,
    e2e_s: LatencySketch,
    iterations: usize,
    prefill_tokens: usize,
    decode_tokens: usize,
    real_tokens: usize,
    processed_tokens: usize,
    gpu_time_s: f64,
    occupancy_sum: f64,
    occupancy_peak: f64,
    fragmentation_sum: f64,
    attended_tokens: usize,
    cached_ctx_tokens: usize,
    sparsity_dropped_pages: u64,
    sparsity_freed_pages: u64,
    prefix_hits: usize,
    prefix_misses: usize,
    prefix_cached_tokens: usize,
    prefix: Option<pit_prefix::PrefixStats>,
    swap_preemptions: u64,
    swap_fallbacks: u64,
    recompute_tokens_saved: usize,
    recompute_rework_tokens: usize,
    restore_s: LatencySketch,
    host_occupancy_sum: f64,
    host_occupancy_peak: f64,
    host_occupancy_samples: usize,
    swap: Option<pit_swap::SwapStats>,
    breakdown: Option<BreakdownSummary>,
    blame: Option<BlameSummary>,
    ledger: DeviceLedger,
    /// Write-only: nothing the collector reports ever reads it.
    hub: Option<&'h MetricsHub>,
}

impl<'h> DecodeMetrics<'h> {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty collector mirroring its charges into `hub`, if any.
    pub(crate) fn observed_by(hub: Option<&'h MetricsHub>) -> Self {
        DecodeMetrics {
            hub,
            ..Self::default()
        }
    }

    /// Records one executed iteration: its real/processed token rows
    /// (split into prefill and decode), modelled GPU seconds, and the KV
    /// pool's occupancy/fragmentation *during* the step.
    pub fn record_step(
        &mut self,
        prefill_real: usize,
        decode_real: usize,
        processed: usize,
        gpu_s: f64,
        kv_occupancy: f64,
        kv_fragmentation: f64,
    ) {
        self.iterations += 1;
        self.prefill_tokens += prefill_real;
        self.decode_tokens += decode_real;
        self.real_tokens += prefill_real + decode_real;
        self.processed_tokens += processed;
        self.gpu_time_s += gpu_s;
        self.occupancy_sum += kv_occupancy;
        self.occupancy_peak = self.occupancy_peak.max(kv_occupancy);
        self.fragmentation_sum += kv_fragmentation;
        if let Some(h) = self.hub {
            h.set_kv_occupancy(kv_occupancy);
        }
    }

    /// Records one iteration's decode-attention footprint: the KV tokens
    /// each slot actually attended (post-sparsity) versus the tokens it
    /// holds cached. Equal under the dense policy; attended < cached once
    /// a KV-sparsity policy trims the read set.
    pub fn record_attention(&mut self, attended: usize, cached: usize) {
        self.attended_tokens += attended;
        self.cached_ctx_tokens += cached;
    }

    /// Records one sparsity-eviction pass over a sequence: `dropped` pages
    /// left its page table, of which `freed` returned to the device pool
    /// (the rest stayed resident for other holders — prefix pins or
    /// shared-prefix siblings).
    pub fn record_sparsity_eviction(&mut self, dropped: usize, freed: usize) {
        self.sparsity_dropped_pages += dropped as u64;
        self.sparsity_freed_pages += freed as u64;
    }

    /// Records prefill rows that re-derived KV a recompute preemption
    /// discarded. They were already counted by `record_step` (they cost
    /// GPU time like any other row); this moves them from served work to
    /// overhead so the reported `real_tokens` — and `tokens_per_s` —
    /// stay goodput.
    pub fn record_recompute_rework(&mut self, tokens: usize) {
        self.recompute_rework_tokens += tokens;
    }

    /// Records one request's time-to-first-token (seconds from arrival),
    /// split by whether its admission hit the prompt-prefix cache (always
    /// a miss when prefix caching is off).
    pub fn record_ttft(&mut self, seconds: f64, prefix_hit: bool) {
        self.ttft_s.record(seconds);
        if prefix_hit {
            self.ttft_hit_s.record(seconds);
        } else {
            self.ttft_miss_s.record(seconds);
        }
    }

    /// Records one admission's prefix-cache outcome: whether it matched,
    /// and how many prompt tokens the match served from cached KV pages
    /// (prefill work skipped).
    pub fn record_prefix_admission(&mut self, cached_tokens: usize, hit: bool) {
        if hit {
            self.prefix_hits += 1;
        } else {
            self.prefix_misses += 1;
        }
        self.prefix_cached_tokens += cached_tokens;
    }

    /// Attaches the prefix index's end-of-run counter snapshot.
    pub fn set_prefix(&mut self, stats: pit_prefix::PrefixStats) {
        self.prefix = Some(stats);
    }

    /// Records one swap-to-host preemption: `saved_tokens` is the cached
    /// context the swap preserved — exactly what recompute preemption
    /// would have re-prefilled on re-admission.
    pub fn record_swap_preempt(&mut self, saved_tokens: usize) {
        self.swap_preemptions += 1;
        self.recompute_tokens_saved += saved_tokens;
    }

    /// Records one preemption that fell back to recompute because the
    /// victim had nothing swappable or the host pool was full.
    pub fn record_swap_fallback(&mut self) {
        self.swap_fallbacks += 1;
    }

    /// Records one swapped victim demoted to recompute after the fact:
    /// counts as a fallback and hands back the savings recorded at swap
    /// time — its preserved context will be re-prefilled after all.
    pub fn record_swap_demotion(&mut self, preserved_tokens: usize) {
        self.swap_fallbacks += 1;
        self.recompute_tokens_saved = self.recompute_tokens_saved.saturating_sub(preserved_tokens);
    }

    /// Records one restore's latency: swap-in initiation to the moment
    /// the transfer lands and the sequence may rejoin the batch (link
    /// queueing included).
    pub fn record_restore(&mut self, seconds: f64) {
        self.restore_s.record(seconds);
    }

    /// Records the host staging pool's occupancy during one step.
    pub fn record_host_occupancy(&mut self, occupancy: f64) {
        self.host_occupancy_sum += occupancy;
        self.host_occupancy_peak = self.host_occupancy_peak.max(occupancy);
        self.host_occupancy_samples += 1;
    }

    /// Attaches the swap engine's end-of-run transfer counters and folds
    /// its per-link byte/busy totals into the ledger.
    pub fn set_swap(&mut self, stats: pit_swap::SwapStats) {
        let ((d2h_bytes, d2h_busy_s), (h2d_bytes, h2d_busy_s)) = stats.link_counters();
        self.ledger
            .add_link_counters(d2h_bytes, d2h_busy_s, h2d_bytes, h2d_busy_s);
        self.swap = Some(stats);
    }

    /// Books one virtual-clock charge — a step's category split (next to
    /// `record_step`), an idle gap, or a swap d2h/h2d stall — into the
    /// device-time ledger and, when a hub is attached, the hub's live
    /// ledger, e.g. `metrics.charge(|l| l.charge_idle(seconds))`.
    pub fn charge(&mut self, book: impl Fn(&mut DeviceLedger)) {
        book(&mut self.ledger);
        if let Some(h) = self.hub {
            h.charge(&book);
        }
    }

    /// Records `n` equal inter-token gaps (seconds between consecutive
    /// tokens of the same request) with one sketch update, bit-identical
    /// to recording each gap on its own.
    pub fn record_itl(&mut self, seconds: f64, n: u64) {
        self.itl_s.record_n(seconds, n);
    }

    /// Records one request's end-to-end latency (arrival to last token).
    pub fn record_e2e(&mut self, seconds: f64) {
        self.e2e_s.record(seconds);
    }

    /// Attaches the trace-derived blocks — the mean phase breakdown and
    /// the causal blame digest — from one [`pit_trace::blame_spans`]
    /// reduction (only available when the run recorded into an enabled
    /// `TraceSink`).
    pub fn set_blame_spans(&mut self, spans: &BTreeMap<u64, BlameBreakdown>) {
        self.breakdown = Some(BreakdownSummary::of(spans));
        let mut agg = BlameAggregate::new();
        agg.fold_spans(spans);
        self.blame = Some(agg.summary());
    }

    /// Freezes the collector into a report.
    pub fn report(self, policy: &str, kv: pit_kv::KvStats, cache: CacheStats) -> DecodeReport {
        let n = self.iterations.max(1) as f64;
        DecodeReport {
            policy: policy.to_string(),
            requests: self.e2e_s.count() as usize,
            iterations: self.iterations,
            prefill_tokens: self.prefill_tokens,
            decode_tokens: self.decode_tokens,
            real_tokens: self.real_tokens - self.recompute_rework_tokens,
            recomputed_tokens: self.recompute_rework_tokens,
            processed_tokens: self.processed_tokens,
            gpu_time_s: self.gpu_time_s,
            ttft: Percentiles::from_sketch(&self.ttft_s),
            ttft_hit: Percentiles::from_sketch(&self.ttft_hit_s),
            ttft_miss: Percentiles::from_sketch(&self.ttft_miss_s),
            itl: Percentiles::from_sketch(&self.itl_s),
            e2e: Percentiles::from_sketch(&self.e2e_s),
            attended_tokens: self.attended_tokens,
            cached_ctx_tokens: self.cached_ctx_tokens,
            sparsity_dropped_pages: self.sparsity_dropped_pages,
            sparsity_freed_pages: self.sparsity_freed_pages,
            prefix_hits: self.prefix_hits,
            prefix_misses: self.prefix_misses,
            prefix_cached_tokens: self.prefix_cached_tokens,
            prefix: self.prefix,
            swap_preemptions: self.swap_preemptions,
            swap_fallbacks: self.swap_fallbacks,
            recompute_tokens_saved: self.recompute_tokens_saved,
            restores: self.restore_s.count() as usize,
            restore: Percentiles::from_sketch(&self.restore_s),
            host_mean_occupancy: self.host_occupancy_sum
                / self.host_occupancy_samples.max(1) as f64,
            host_peak_occupancy: self.host_occupancy_peak,
            swap: self.swap,
            kv,
            kv_mean_occupancy: self.occupancy_sum / n,
            kv_peak_occupancy: self.occupancy_peak,
            kv_mean_fragmentation: self.fragmentation_sum / n,
            breakdown: self.breakdown,
            blame: self.blame,
            cache,
            utilization: self.ledger.utilization(),
            ledger: self.ledger,
        }
    }
}

/// Everything one decode serving run produced.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct DecodeReport {
    /// Decode policy name.
    pub policy: String,
    /// Requests served to completion.
    pub requests: usize,
    /// Iterations (mixed prefill/decode steps) executed.
    pub iterations: usize,
    /// Prompt rows run through the prefill path (re-prefills after a
    /// recompute preemption count again — they cost GPU time again).
    pub prefill_tokens: usize,
    /// Real decode rows processed (one per live request per iteration).
    pub decode_tokens: usize,
    /// Served tokens: `prefill_tokens + decode_tokens` minus
    /// `recomputed_tokens`. Every trace token counts exactly once, so
    /// `tokens_per_s` is goodput — a policy cannot look faster by
    /// re-deriving KV it threw away.
    pub real_tokens: usize,
    /// Context rows re-prefilled after recompute preemption: KV the
    /// system computed, discarded under pressure, and paid to derive
    /// again. Overhead, excluded from `real_tokens`.
    pub recomputed_tokens: usize,
    /// Token rows the modelled GPU processed (≥ real; the rectangle).
    pub processed_tokens: usize,
    /// Modelled GPU busy seconds across all iterations.
    pub gpu_time_s: f64,
    /// Time-to-first-token percentiles (arrival → end of prefill step).
    pub ttft: Percentiles,
    /// TTFT percentiles of requests whose admission hit the prefix cache
    /// (zeros when none did).
    pub ttft_hit: Percentiles,
    /// TTFT percentiles of prefix-cache misses (every request when prefix
    /// caching is off).
    pub ttft_miss: Percentiles,
    /// Inter-token latency percentiles (gap between consecutive tokens of
    /// one request; preemption gaps included).
    pub itl: Percentiles,
    /// End-to-end request latency percentiles.
    pub e2e: Percentiles,
    /// KV tokens decode slots actually attended across all iterations
    /// (post-sparsity read set; equals `cached_ctx_tokens` when dense).
    pub attended_tokens: usize,
    /// KV tokens decode slots held cached across all iterations.
    pub cached_ctx_tokens: usize,
    /// Pages removed from sequence page tables by KV-sparsity eviction.
    pub sparsity_dropped_pages: u64,
    /// Sparsity-dropped pages whose frames returned to the device pool
    /// (≤ dropped: shared or prefix-pinned frames stay resident).
    pub sparsity_freed_pages: u64,
    /// Admissions that matched a cached prompt prefix.
    pub prefix_hits: usize,
    /// Admissions that matched nothing (every admission when prefix
    /// caching is off).
    pub prefix_misses: usize,
    /// Prompt tokens served from cached KV pages instead of prefill
    /// (re-admissions after preemption count again — recompute skipped
    /// twice is saved twice).
    pub prefix_cached_tokens: usize,
    /// Prefix-index counters at end of run (`None` when prefix caching is
    /// off).
    pub prefix: Option<pit_prefix::PrefixStats>,
    /// Preemptions resolved by swapping the victim's pages to the host
    /// tier instead of freeing them.
    pub swap_preemptions: u64,
    /// Preemptions that wanted to swap but fell back to recompute (host
    /// pool full, or the victim held nothing exclusively).
    pub swap_fallbacks: u64,
    /// Context tokens preserved across swap preemptions — the prefill
    /// work recompute preemption would have re-run.
    pub recompute_tokens_saved: usize,
    /// Restores completed (swapped sequences brought back).
    pub restores: usize,
    /// Restore-latency percentiles: swap-in initiation to transfer
    /// landing, PCIe queueing included (zeros when nothing swapped).
    pub restore: Percentiles,
    /// Mean host staging-pool occupancy across iterations (0 without a
    /// host tier).
    pub host_mean_occupancy: f64,
    /// Peak host staging-pool occupancy.
    pub host_peak_occupancy: f64,
    /// PCIe transfer counters (`None` when swap preemption is off).
    pub swap: Option<pit_swap::SwapStats>,
    /// KV pool counters at end of run (leak check: `kv.conserved()`).
    pub kv: pit_kv::KvStats,
    /// Mean KV-page occupancy across iterations.
    pub kv_mean_occupancy: f64,
    /// Peak KV-page occupancy.
    pub kv_peak_occupancy: f64,
    /// Mean allocated-but-unwritten slot fraction across iterations.
    pub kv_mean_fragmentation: f64,
    /// Mean queue/prefill/decode/stall phase times per finished request,
    /// reduced from the lifecycle trace (`None` when tracing was off).
    pub breakdown: Option<BreakdownSummary>,
    /// Causal blame digest: per-cause TTFT/e2e shares with per-request
    /// contribution quantiles, aggregated from the trace's exact-tiling
    /// critical-path attribution (`None` when tracing was off).
    pub blame: Option<BlameSummary>,
    /// Shared JIT-cache counters.
    pub cache: CacheStats,
    /// Device-time ledger: categories tile busy time exactly, and busy +
    /// stalls + idle tile the virtual clock (`ledger.conserved()`).
    pub ledger: DeviceLedger,
    /// Busy fraction, FLOP efficiency and link traffic from the ledger.
    pub utilization: Utilization,
}

impl DecodeReport {
    /// Fraction of processed token rows that were overhead — padding
    /// under the static rectangle, recompute re-derivation under
    /// preemption pressure.
    pub fn padding_waste(&self) -> f64 {
        pit_workloads::padding_waste(self.real_tokens, self.processed_tokens)
    }

    /// Served throughput: goodput tokens per modelled GPU second
    /// (recompute re-prefills cost time but add nothing to the
    /// numerator).
    pub fn tokens_per_s(&self) -> f64 {
        if self.gpu_time_s <= 0.0 {
            return 0.0;
        }
        self.real_tokens as f64 / self.gpu_time_s
    }

    /// Mean decode slots per iteration (effective decode batch size).
    pub fn mean_decode_batch(&self) -> f64 {
        if self.iterations == 0 {
            return 0.0;
        }
        self.decode_tokens as f64 / self.iterations as f64
    }

    /// Fraction of cached KV tokens the decode slots actually attended
    /// (1.0 under the dense policy or when nothing decoded).
    pub fn attended_fraction(&self) -> f64 {
        if self.cached_ctx_tokens == 0 {
            return 1.0;
        }
        self.attended_tokens as f64 / self.cached_ctx_tokens as f64
    }

    /// The report as one JSON document (vendored serde). Callable without
    /// importing the `Serialize` trait.
    pub fn to_json(&self) -> String {
        serde::Serialize::to_json(self)
    }

    /// Fraction of admissions that hit the prompt-prefix cache (0 when
    /// prefix caching is off or nothing was admitted).
    pub fn prefix_hit_rate(&self) -> f64 {
        let total = self.prefix_hits + self.prefix_misses;
        if total == 0 {
            return 0.0;
        }
        self.prefix_hits as f64 / total as f64
    }

    /// The run's metrics as a Prometheus text exposition (counters,
    /// gauges and sketch-backed latency quantiles), ready to write next
    /// to the bench JSON.
    pub fn exposition(&self) -> Exposition {
        let mut out = Exposition::new();
        out.counter(
            "pit_requests_total",
            "Requests served to completion",
            self.requests as f64,
        );
        out.counter(
            "pit_iterations_total",
            "Mixed prefill/decode iterations executed",
            self.iterations as f64,
        );
        out.counter(
            "pit_real_tokens_total",
            "Goodput tokens served",
            self.real_tokens as f64,
        );
        out.counter(
            "pit_processed_tokens_total",
            "Token rows the modelled GPU processed",
            self.processed_tokens as f64,
        );
        out.counter(
            "pit_recomputed_tokens_total",
            "Context tokens re-prefilled after recompute preemption",
            self.recomputed_tokens as f64,
        );
        out.gauge(
            "pit_tokens_per_second",
            "Goodput tokens per modelled GPU second",
            self.tokens_per_s(),
        );
        out.gauge(
            "pit_kv_attended_fraction",
            "Fraction of cached KV tokens decode slots attended",
            self.attended_fraction(),
        );
        out.summary_quantiles(
            "pit_ttft_seconds",
            "Time to first token (sketch-backed quantiles)",
            &[
                (0.50, self.ttft.p50),
                (0.95, self.ttft.p95),
                (0.99, self.ttft.p99),
            ],
            None,
            Some(self.requests as u64),
        );
        out.summary_quantiles(
            "pit_itl_seconds",
            "Inter-token latency (sketch-backed quantiles)",
            &[
                (0.50, self.itl.p50),
                (0.95, self.itl.p95),
                (0.99, self.itl.p99),
            ],
            None,
            None,
        );
        out.summary_quantiles(
            "pit_e2e_seconds",
            "End-to-end request latency (sketch-backed quantiles)",
            &[
                (0.50, self.e2e.p50),
                (0.95, self.e2e.p95),
                (0.99, self.e2e.p99),
            ],
            None,
            Some(self.requests as u64),
        );
        out.counter(
            "pit_swap_preemptions_total",
            "Preemptions resolved by swapping to the host tier",
            self.swap_preemptions as f64,
        );
        out.counter(
            "pit_restores_total",
            "Swapped sequences restored to the device",
            self.restores as f64,
        );
        if let Some(b) = &self.blame {
            blame_exposition(&mut out, b);
        }
        ledger_exposition(&mut out, &self.ledger);
        out
    }
}

impl fmt::Display for DecodeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {} requests over {} iterations ({:.1} decode slots/iter)",
            self.policy,
            self.requests,
            self.iterations,
            self.mean_decode_batch()
        )?;
        writeln!(
            f,
            "  tokens: {} real ({} prefill + {} decode) / {} processed  (padding waste {:.1}%)",
            self.real_tokens,
            self.prefill_tokens,
            self.decode_tokens,
            self.processed_tokens,
            self.padding_waste() * 100.0
        )?;
        writeln!(
            f,
            "  throughput: {:.0} tokens/s over {:.3} modelled GPU-s",
            self.tokens_per_s(),
            self.gpu_time_s
        )?;
        writeln!(
            f,
            "  ttft: p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms",
            self.ttft.p50 * 1e3,
            self.ttft.p95 * 1e3,
            self.ttft.p99 * 1e3
        )?;
        writeln!(
            f,
            "  itl:  p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms   e2e p95 {:.1} ms",
            self.itl.p50 * 1e3,
            self.itl.p95 * 1e3,
            self.itl.p99 * 1e3,
            self.e2e.p95 * 1e3
        )?;
        if self.recomputed_tokens > 0 {
            writeln!(
                f,
                "  recompute overhead: {} context tokens re-prefilled after preemption",
                self.recomputed_tokens,
            )?;
        }
        if self.sparsity_dropped_pages > 0 || self.attended_tokens < self.cached_ctx_tokens {
            writeln!(
                f,
                "  kv sparsity: attended {:.1}% of cached context ({} / {} tokens); \
                 {} pages evicted, {} frames freed",
                self.attended_fraction() * 100.0,
                self.attended_tokens,
                self.cached_ctx_tokens,
                self.sparsity_dropped_pages,
                self.sparsity_freed_pages,
            )?;
        }
        if self.prefix_hits + self.prefix_misses > 0 {
            writeln!(
                f,
                "  prefix: {} hits / {} misses ({:.0}% of admissions), {} prompt tokens served \
                 from cache; ttft p95 hit {:.2} ms / miss {:.2} ms",
                self.prefix_hits,
                self.prefix_misses,
                self.prefix_hit_rate() * 100.0,
                self.prefix_cached_tokens,
                self.ttft_hit.p95 * 1e3,
                self.ttft_miss.p95 * 1e3,
            )?;
        }
        if let Some(p) = &self.prefix {
            writeln!(f, "  {p}")?;
        }
        if let Some(s) = &self.swap {
            writeln!(
                f,
                "  swap preemptions: {} ({} recompute fallbacks), {} context tokens kept \
                 off the re-prefill path",
                self.swap_preemptions, self.swap_fallbacks, self.recompute_tokens_saved,
            )?;
            writeln!(
                f,
                "  restores: {}  p50 {:.2} ms  p95 {:.2} ms; host pool mean {:.1}% / peak {:.1}%",
                self.restores,
                self.restore.p50 * 1e3,
                self.restore.p95 * 1e3,
                self.host_mean_occupancy * 100.0,
                self.host_peak_occupancy * 100.0,
            )?;
            writeln!(f, "  {s}")?;
        }
        if let Some(b) = &self.breakdown {
            writeln!(
                f,
                "  breakdown ({} finished): queue {:.2} ms + prefill {:.2} ms + decode {:.2} ms \
                 + stall {:.2} ms = {:.2} ms mean e2e",
                b.requests,
                b.mean_queue_s * 1e3,
                b.mean_prefill_s * 1e3,
                b.mean_decode_s * 1e3,
                b.mean_stall_s * 1e3,
                b.mean_total_s() * 1e3,
            )?;
        }
        if let Some(b) = &self.blame {
            writeln!(f, "  {b}")?;
        }
        writeln!(
            f,
            "  {} (mean occupancy {:.1}%, peak {:.1}%, mean fragmentation {:.1}%)",
            self.kv,
            self.kv_mean_occupancy * 100.0,
            self.kv_peak_occupancy * 100.0,
            self.kv_mean_fragmentation * 100.0
        )?;
        writeln!(
            f,
            "  device: busy {:.1}% of {:.4} s virtual clock (stalls d2h {:.2} ms / h2d {:.2} ms, \
             idle {:.2} ms); mfu {:.1}%",
            self.utilization.busy_fraction * 100.0,
            self.ledger.clock_s(),
            self.ledger.swap_d2h_stall_ps as f64 / 1e9,
            self.ledger.swap_h2d_stall_ps as f64 / 1e9,
            self.ledger.idle_ps as f64 / 1e9,
            self.utilization.mfu * 100.0,
        )?;
        write!(
            f,
            "  jit cache: {} hits / {} misses / {} evictions ({:.0}% hit rate)",
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::BatchPolicy;

    /// Asserts `got` is within the sketch's relative-error bound of
    /// `want` (reports built from sketches are approximate by contract).
    fn assert_close(got: f64, want: f64) {
        let tol = pit_trace::DEFAULT_SKETCH_ERROR * want.abs() + 1e-12;
        assert!(
            (got - want).abs() <= tol,
            "{got} not within {tol} of {want}"
        );
    }

    #[test]
    fn percentiles_of_known_sample() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = Percentiles::from_unsorted(samples);
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.p99, 99.0);
    }

    #[test]
    fn percentiles_handle_tiny_and_empty_samples() {
        let p = Percentiles::from_unsorted(vec![]);
        assert_eq!(p.p50, 0.0);
        let one = Percentiles::from_unsorted(vec![3.5]);
        assert_eq!(one.p50, 3.5);
        assert_eq!(one.p99, 3.5);
        // Unsorted input is sorted internally.
        let p = Percentiles::from_unsorted(vec![5.0, 1.0, 3.0]);
        assert_eq!(p.p50, 3.0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "NaN latency"))]
    fn percentiles_reject_nan_instead_of_panicking_in_sort() {
        // Debug builds assert on the poisoned sample; release builds
        // filter it and rank the remaining values.
        let p = Percentiles::from_unsorted(vec![2.0, f64::NAN, 1.0, 3.0]);
        assert_eq!(p.p50, 2.0);
        assert_eq!(p.p99, 3.0);
    }

    #[test]
    fn sketch_percentiles_track_the_exact_oracle() {
        let samples: Vec<f64> = (1..=500).map(|i| i as f64 * 1e-4).collect();
        let mut sketch = LatencySketch::new();
        for &v in &samples {
            sketch.record(v);
        }
        let exact = Percentiles::from_unsorted(samples);
        let approx = Percentiles::from_sketch(&sketch);
        assert_close(approx.p50, exact.p50);
        assert_close(approx.p95, exact.p95);
        assert_close(approx.p99, exact.p99);
    }

    #[test]
    fn decode_collector_aggregates_steps() {
        let mut m = DecodeMetrics::new();
        m.record_step(100, 0, 160, 0.5, 0.2, 0.1); // prefill iteration
        m.record_step(0, 8, 16, 0.25, 0.4, 0.3); // decode iteration
        m.record_ttft(0.010, false);
        m.record_itl(0.002, 1);
        m.record_itl(0.004, 1);
        m.record_e2e(0.050);
        let kv = pit_kv::PagedKvCache::new(pit_kv::KvConfig::new(16, 8)).stats();
        let cache = CacheStats {
            hits: 1,
            misses: 1,
            evictions: 0,
        };
        let r = m.report("continuous", kv, cache);
        assert_eq!(r.requests, 1);
        assert_eq!(r.iterations, 2);
        assert_eq!(r.prefill_tokens, 100);
        assert_eq!(r.decode_tokens, 8);
        assert_eq!(r.real_tokens, 108);
        assert_eq!(r.processed_tokens, 176);
        assert!((r.gpu_time_s - 0.75).abs() < 1e-9);
        assert!((r.tokens_per_s() - 144.0).abs() < 1e-6);
        assert!((r.padding_waste() - (1.0 - 108.0 / 176.0)).abs() < 1e-9);
        assert!((r.kv_mean_occupancy - 0.3).abs() < 1e-9);
        assert!((r.kv_peak_occupancy - 0.4).abs() < 1e-9);
        assert!((r.kv_mean_fragmentation - 0.2).abs() < 1e-9);
        assert_close(r.itl.p50, 0.002);
        assert_close(r.itl.p99, 0.004);
        assert!(r.kv.conserved());
        assert!((r.mean_decode_batch() - 4.0).abs() < 1e-12);
        // No prefix caching: every TTFT lands in the miss bucket.
        assert_close(r.ttft_miss.p50, 0.010);
        assert_eq!(r.ttft_hit.p50, 0.0);
        assert_eq!(r.prefix_hit_rate(), 0.0);
        assert!(r.prefix.is_none());
        let text = r.to_string();
        assert!(text.contains("ttft"));
        assert!(text.contains("itl"));
        assert!(text.contains("fragmentation"));
        assert!(text.contains("padding waste"));
    }

    #[test]
    fn decode_collector_splits_ttft_by_prefix_outcome() {
        let mut m = DecodeMetrics::new();
        m.record_prefix_admission(320, true);
        m.record_prefix_admission(0, false);
        m.record_prefix_admission(128, true);
        m.record_ttft(0.004, true);
        m.record_ttft(0.020, false);
        m.record_ttft(0.006, true);
        m.record_e2e(0.1);
        m.set_prefix(pit_prefix::RadixPrefixIndex::new(16).stats());
        let kv = pit_kv::PagedKvCache::new(pit_kv::KvConfig::new(16, 8)).stats();
        let cache = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        let r = m.report("continuous-prefix-cached", kv, cache);
        assert_eq!(r.prefix_hits, 2);
        assert_eq!(r.prefix_misses, 1);
        assert_eq!(r.prefix_cached_tokens, 448);
        assert!((r.prefix_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_close(r.ttft_hit.p99, 0.006);
        assert_close(r.ttft_miss.p99, 0.020);
        assert!(r.ttft_hit.p95 < r.ttft_miss.p95);
        assert!(r.prefix.is_some());
        let text = r.to_string();
        assert!(text.contains("prefix"));
        assert!(text.contains("from cache"));
        assert!(text.contains("hit rate"));
    }

    #[test]
    fn decode_collector_aggregates_swap_accounting() {
        let mut m = DecodeMetrics::new();
        m.record_swap_preempt(120);
        m.record_swap_preempt(80);
        m.record_swap_fallback();
        m.record_restore(0.002);
        m.record_restore(0.006);
        m.record_host_occupancy(0.25);
        m.record_host_occupancy(0.75);
        m.record_e2e(0.1);
        let eng = pit_swap::SwapEngine::new(&pit_gpusim::DeviceSpec::a100_80gb(), 1 << 20);
        m.set_swap(eng.stats());
        let kv = pit_kv::PagedKvCache::new(pit_kv::KvConfig::new(16, 8)).stats();
        let cache = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        let r = m.report("continuous-swap-to-host", kv, cache);
        assert_eq!(r.swap_preemptions, 2);
        assert_eq!(r.swap_fallbacks, 1);
        assert_eq!(r.recompute_tokens_saved, 200);
        assert_eq!(r.restores, 2);
        assert_close(r.restore.p50, 0.002);
        assert_close(r.restore.p99, 0.006);
        assert!((r.host_mean_occupancy - 0.5).abs() < 1e-12);
        assert!((r.host_peak_occupancy - 0.75).abs() < 1e-12);
        assert!(r.swap.is_some());
        let text = r.to_string();
        assert!(text.contains("swap preemptions"));
        assert!(text.contains("restores"));
        assert!(text.contains("host pool"));
    }

    #[test]
    fn decode_collector_aggregates_sparsity_and_serializes() {
        let mut m = DecodeMetrics::new();
        m.record_step(0, 4, 4, 0.1, 0.5, 0.0);
        m.record_attention(300, 1200);
        m.record_attention(280, 1100);
        m.record_sparsity_eviction(6, 4);
        m.record_sparsity_eviction(2, 2);
        m.record_e2e(0.05);
        let kv = pit_kv::PagedKvCache::new(pit_kv::KvConfig::new(16, 8)).stats();
        let cache = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        let r = m.report("continuous-padding-free+heavy-hitter", kv, cache);
        assert_eq!(r.attended_tokens, 580);
        assert_eq!(r.cached_ctx_tokens, 2300);
        assert_eq!(r.sparsity_dropped_pages, 8);
        assert_eq!(r.sparsity_freed_pages, 6);
        assert!((r.attended_fraction() - 580.0 / 2300.0).abs() < 1e-12);
        let text = r.to_string();
        assert!(text.contains("kv sparsity"));
        assert!(text.contains("pages evicted"));
        // JSON round-trips the headline counters as plain fields.
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""policy":"continuous-padding-free+heavy-hitter""#));
        assert!(json.contains(r#""attended_tokens":580"#));
        assert!(json.contains(r#""sparsity_dropped_pages":8"#));
        assert!(json.contains(r#""kv":{"#));
        assert!(json.contains(r#""p50":"#));
    }

    #[test]
    fn dense_report_attends_everything_it_caches() {
        let mut m = DecodeMetrics::new();
        m.record_step(0, 2, 2, 0.1, 0.5, 0.0);
        m.record_attention(900, 900);
        m.record_e2e(0.05);
        let kv = pit_kv::PagedKvCache::new(pit_kv::KvConfig::new(16, 8)).stats();
        let cache = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        let r = m.report("continuous-padding-free", kv, cache);
        assert_eq!(r.attended_fraction(), 1.0);
        assert_eq!(r.sparsity_dropped_pages, 0);
        assert!(!r.to_string().contains("kv sparsity"));
    }

    #[test]
    fn decode_collector_ledger_conserves_and_exposes() {
        let mut m = DecodeMetrics::new();
        m.charge(|l| l.charge_idle(0.010));
        m.charge(|l| {
            l.charge_step(&StepSample {
                gpu_s: 0.5,
                prefill_attention_s: 0.2,
                decode_attention_s: 0.1,
                sparse_conversion_s: 0.01,
                jit_search_s: 0.001,
                flops_useful: 8e12,
                flops_executed: 10e12,
                jit_searches: 1,
                jit_search_measured_s: 0.0002,
            })
        });
        m.record_step(0, 8, 8, 0.5, 0.4, 0.1);
        m.charge(|l| l.charge_d2h_stall(0.002));
        m.charge(|l| l.charge_h2d_stall(0.003));
        let eng = pit_swap::SwapEngine::new(&pit_gpusim::DeviceSpec::a100_80gb(), 1 << 20);
        m.set_swap(eng.stats());
        m.record_e2e(0.5);
        let kv = pit_kv::PagedKvCache::new(pit_kv::KvConfig::new(16, 8)).stats();
        let cache = CacheStats {
            hits: 0,
            misses: 1,
            evictions: 0,
        };
        let r = m.report("continuous", kv, cache);
        assert!(r.ledger.conserved(), "categories must tile the clock");
        assert!((r.ledger.busy_s() - 0.5).abs() < 1e-9);
        assert!((r.ledger.clock_s() - 0.515).abs() < 1e-9);
        assert!((r.utilization.busy_fraction - 0.5 / 0.515).abs() < 1e-9);
        assert!((r.utilization.mfu - 0.8).abs() < 1e-9);
        assert_eq!(r.ledger.jit_searches, 1);
        assert!(r.to_string().contains("mfu"));
        // The exposition renders, parses back, and covers the taxonomy.
        let text = r.exposition().render();
        let parsed = pit_trace::parse_exposition(&text).expect("valid exposition");
        assert_eq!(parsed, r.exposition());
        for family in [
            "pit_device_busy_fraction",
            "pit_device_mfu",
            "pit_device_prefill_attention_seconds_total",
            "pit_device_idle_seconds_total",
            "pit_ttft_seconds",
            "pit_link_d2h_bytes_total",
        ] {
            assert!(
                parsed.families().iter().any(|f| f.name == family),
                "missing {family} in exposition"
            );
        }
    }

    #[test]
    fn serving_collector_ledger_reaches_the_report() {
        let m = Metrics::new();
        m.charge_idle(0.25);
        let batch = BatchPolicy::PaddingFree { token_budget: 64 }.form(vec![10, 20]);
        m.record_batch(
            &batch,
            &StepSample {
                gpu_s: 0.75,
                prefill_attention_s: 0.5,
                ..Default::default()
            },
        );
        let cache = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        let r = m.report("padding-free", 1.0, 0, cache);
        assert!(r.ledger.conserved());
        assert!((r.ledger.busy_s() - 0.75).abs() < 1e-9);
        assert!((r.utilization.busy_fraction - 0.75).abs() < 1e-9);
        // All attention in the serving forward pass is prefill.
        assert_eq!(r.ledger.decode_attention_ps, 0);
        let text = r.exposition().render();
        assert!(text.contains("# TYPE pit_requests_total counter"));
        assert!(text.contains("pit_device_busy_fraction"));
        assert_eq!(
            pit_trace::parse_exposition(&text).expect("valid"),
            r.exposition()
        );
    }

    #[test]
    fn collector_aggregates_batches() {
        let m = Metrics::new();
        let policy = BatchPolicy::PaddedToLongest { max_batch: 4 };
        let b = policy.form(vec![10, 20]);
        for gpu_s in [0.5, 0.25] {
            let sample = StepSample {
                gpu_s,
                ..Default::default()
            };
            m.record_batch(&b, &sample);
        }
        m.record_latency(0.010);
        m.record_latency(0.020);
        let cache = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        let r = m.report("padded-to-longest", 1.0, 7, cache);
        assert_eq!(r.requests, 2);
        assert_eq!(r.batches, 2);
        assert_eq!(r.real_tokens, 60);
        assert_eq!(r.padded_tokens, 80);
        assert!((r.gpu_time_s - 0.75).abs() < 1e-6);
        assert!((r.tokens_per_s() - 80.0).abs() < 1e-3);
        assert!((r.padding_waste() - 0.25).abs() < 1e-9);
        assert!((r.cache.hit_rate() - 0.75).abs() < 1e-9);
        // The summary renders every headline metric.
        let text = r.to_string();
        assert!(text.contains("padding waste"));
        assert!(text.contains("tokens/s"));
        assert!(text.contains("p99"));
        assert!(text.contains("hit rate"));
    }
}
