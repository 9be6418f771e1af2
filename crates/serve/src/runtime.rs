//! The serving runtime: admission → continuous batching → worker pool.
//!
//! Three kinds of threads cooperate inside one `std::thread::scope`:
//!
//! - **clients** (closed-loop load generators) pull the next request off
//!   the shared trace, push it into the bounded admission queue (blocking
//!   on backpressure) and wait for its completion before submitting again;
//! - one **scheduler** drains the admission queue, waits up to a short
//!   batching window for the queue to fill, and forms batches under the
//!   configured [`BatchPolicy`];
//! - **workers** pop formed batches and drive `pit_models::engine` through
//!   a transformer forward pass over the batch's effective lengths,
//!   sharing one bounded [`JitCache`] so per-shape Algorithm-1 selections
//!   are searched once and reused across workers (§5.6: shapes repeat,
//!   patterns don't).
//!
//! [`serve_trace`] runs that threaded runtime and [`serve_trace_arrivals`]
//! its open-loop variant; [`simulate_trace_arrivals`] runs the same
//! scheduler and executor synchronously on a virtual clock for
//! deterministic comparisons (benches, tests). A trace whose requests all
//! arrive at time zero replays the closed-loop drain.

use crate::metrics::{CacheStats, Metrics, ServingReport};
use crate::queue::{BoundedQueue, PopResult, TryPushError};
use crate::scheduler::{BatchPolicy, FormedBatch};
use pit_core::jit::{JitCache, KernelKey};
use pit_core::select_kernel;
use pit_gpusim::DeviceSpec;
use pit_models::{Engine, ModelConfig, OpKind};
use pit_sparse::Mask;
use pit_tensor::DType;
use pit_trace::{
    BlameAggregate, BlameBreakdown, BlameCategory, Latency, MetricsHub, StepSample, TraceEvent,
    WindowSeries,
};
use pit_workloads::ArrivalTrace;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How the open-loop front end reacts to a full admission queue.
///
/// Closed-loop clients always block (a client that cannot enqueue cannot
/// generate more load); the open-loop replays choose: block the submitter
/// (arrivals slip later — the trace clock distorts under overload) or
/// reject the request outright (load-shedding: arrivals stay on schedule
/// and the drop count is the overload signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionMode {
    /// Block the submitter until the queue has room (PR 2 behaviour).
    #[default]
    Block,
    /// Reject the request when the queue is full; rejected requests are
    /// counted in [`ServingReport::rejected`] and never served.
    RejectWhenFull,
}

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Batch-formation policy.
    pub policy: BatchPolicy,
    /// Full-queue behaviour of the open-loop front end.
    pub admission: AdmissionMode,
    /// Worker threads executing batches.
    pub workers: usize,
    /// Closed-loop client threads generating load.
    pub clients: usize,
    /// Admission-queue capacity (backpressure bound).
    pub queue_capacity: usize,
    /// Target batch fill: the scheduler waits up to `batch_window` per
    /// missing request for the pending set to reach this size.
    pub min_fill: usize,
    /// How long the scheduler waits for more arrivals before forming a
    /// smaller batch.
    pub batch_window: Duration,
    /// The model every request runs through.
    pub model: ModelConfig,
    /// Modelled device.
    pub device: DeviceSpec,
    /// Precision.
    pub dtype: DType,
    /// Shared JIT-cache bound (entries); keeps a long-running server's
    /// selection cache from growing without limit.
    pub cache_capacity: usize,
    /// When set, the open-loop replays bucket admitted/rejected counts
    /// (and, in the deterministic replay, peak queue depth) into windows
    /// this many seconds wide — [`ServingReport::windows`]. `None` (the
    /// default) keeps the replays window-free; bursty traces are where
    /// the series earns its keep, since end-of-run totals hide bursts.
    pub arrival_window_s: Option<f64>,
}

impl ServeConfig {
    /// A reasonable default serving setup for `policy`: BERT-base on an
    /// A100, 2 workers, 8 closed-loop clients.
    pub fn new(policy: BatchPolicy) -> Self {
        ServeConfig {
            policy,
            admission: AdmissionMode::Block,
            workers: 2,
            clients: 8,
            queue_capacity: 64,
            min_fill: 8,
            batch_window: Duration::from_millis(2),
            model: ModelConfig::bert_base(),
            device: DeviceSpec::a100_80gb(),
            dtype: DType::F32,
            cache_capacity: 256,
            arrival_window_s: None,
        }
    }
}

/// One admitted request travelling through the runtime.
struct Request {
    len: usize,
    submitted: Instant,
    done: mpsc::Sender<()>,
}

/// One batch handed from the scheduler to a worker.
struct WorkItem {
    formed: FormedBatch,
    requests: Vec<Request>,
}

/// Quantises a token count to micro-tile granularity for the JIT-cache
/// key: PIT's (32,1) micro-tiles make every shape within the same 32-token
/// class equivalent, which is what keeps the per-shape cache small and hot.
pub(crate) fn shape_class(tokens: usize) -> usize {
    tokens.div_ceil(32).max(1) * 32
}

/// Builds the token-occupancy sample for Algorithm-1: a row-granular mask
/// with one row per (scaled) processed token, dense for real tokens and
/// empty for padding. Permutation invariance means row *positions* are
/// irrelevant, so real rows lead. Scaled to at most ~1k rows to keep the
/// online search in the paper's µs–ms band.
pub(crate) fn occupancy_mask(real_tokens: usize, padded_tokens: usize) -> Mask {
    let scale = padded_tokens.div_ceil(1024).max(1);
    let rows = (padded_tokens / scale).max(1);
    let real_rows = (real_tokens / scale).min(rows);
    Mask::from_fn(rows, 64, |r, _| r < real_rows)
}

/// Charges the shared per-shape Algorithm-1 selection (§5.6) for a step
/// of `padded_rows` processed token rows, `real_rows` of them real, to
/// `eng`: only a cache miss runs the search, and only a miss pays the
/// *modelled* search cost (`SelectedKernel::modelled_search_s`, a
/// deterministic function of the candidate count) — the measured wall
/// time is returned as an annotation so replays stay bit-identical. On
/// the PIT path it also charges the token-row micro-tile index build
/// (the Figure-19 "Convert" sliver); `extra_index_items` covers
/// additional gathers such as the decode runtime's KV page-table walk.
/// Both the prefill executor and the decode step engine price their
/// batches through this one helper so the miss-cost policy cannot drift
/// between them.
///
/// Returns `(searches, measured_search_s)`: 1 and the measured wall time
/// on a cache miss, zeros on a hit.
pub(crate) fn charge_shape_selection(
    eng: &mut Engine,
    cache: &JitCache,
    op: &'static str,
    model: &ModelConfig,
    real_rows: usize,
    padded_rows: usize,
    extra_index_items: usize,
) -> (u64, f64) {
    let key = KernelKey {
        op,
        dims: [shape_class(padded_rows), model.hidden, model.ffn],
        dtype: eng.dtype,
    };
    let mut searched = false;
    let selection = cache.get_or_select(key, || {
        searched = true;
        let sample = occupancy_mask(real_rows.min(padded_rows), padded_rows);
        select_kernel(
            eng.cost(),
            &eng.db,
            std::slice::from_ref(&sample),
            model.hidden,
            eng.dtype,
        )
    });
    let mut annotation = (0u64, 0.0f64);
    if searched {
        eng.charge_host(OpKind::JitSearch, selection.modelled_search_s);
        annotation = (1, selection.search_time.as_secs_f64());
    }
    if eng.framework.is_pit() {
        let index_s = eng.cost().index_append(padded_rows)
            + eng.cost().scan_pass((real_rows * 4) as f64)
            + eng.cost().index_append(extra_index_items);
        eng.charge_host(OpKind::PitIndex, index_s);
    }
    annotation
}

/// Executes one formed batch on the analytic engine and returns its
/// modelled GPU time (seconds) with the ledger category split:
/// attention/conversion/search attribution and the FLOP counters, read
/// off the engine's ledger. This is the serving forward pass: a
/// transformer stack over the batch's *effective* lengths, so a padded
/// batch pays for every padded token while a padding-free batch pays only
/// for real ones. The shared JIT cache memoises the per-shape kernel
/// selection; a miss charges the modelled search cost to the batch. A
/// serving forward pass is all prefill, so its attention lands in
/// `prefill_attention_s`.
pub fn batch_step_sample(cfg: &ServeConfig, formed: &FormedBatch, cache: &JitCache) -> StepSample {
    let mut eng = Engine::new(cfg.device.clone(), cfg.dtype, cfg.policy.framework());
    let m = &cfg.model;
    let tokens = formed.padded_tokens;
    if tokens == 0 {
        return StepSample::default();
    }
    let (jit_searches, jit_search_measured_s) = charge_shape_selection(
        &mut eng,
        cache,
        "serve.fwd",
        m,
        formed.real_tokens,
        tokens,
        0,
    );

    debug_assert_eq!(formed.effective_lens.iter().sum::<usize>(), tokens);
    let sum_sq: f64 = formed.sum_sq_effective() as f64;
    let elem = eng.elem() as f64;
    let (hidden, ffn) = (m.hidden, m.ffn);
    let score_flops = 2.0 * sum_sq * hidden as f64;
    let score_bytes = sum_sq * m.heads as f64 * elem;
    let attention = eng.price_gemm_flops(score_flops, score_bytes);
    let softmax_rows = (sum_sq * m.heads as f64 / 64.0).ceil() as usize;
    // Every layer sees the same batch: price it once, fold it per layer.
    let layer = [
        (OpKind::Qkv, eng.price_gemm(tokens, hidden, 3 * hidden)),
        (OpKind::Scores, attention),
        (OpKind::Softmax, eng.price_softmax(softmax_rows, 64)),
        (OpKind::Context, attention),
        (OpKind::Out, eng.price_gemm(tokens, hidden, hidden)),
        (OpKind::AttnLn, eng.price_layernorm(tokens, hidden)),
        (OpKind::Fc1, eng.price_gemm(tokens, hidden, ffn)),
        (OpKind::Act, eng.price_elementwise(tokens * ffn, 1)),
        (OpKind::Fc2, eng.price_gemm(tokens, ffn, hidden)),
        (OpKind::FfnLn, eng.price_layernorm(tokens, hidden)),
        (OpKind::Residual, eng.price_elementwise(tokens * hidden, 2)),
    ];
    let embed = eng.price_elementwise(tokens * hidden, 1);
    let head = eng.price_gemm(tokens, hidden, m.vocab.min(4096));
    eng.charge(OpKind::Embed, embed);
    eng.charge_layers(&layer, m.layers);
    eng.charge(OpKind::Head, head);
    let tally = eng.cost_tally();
    StepSample {
        gpu_s: eng.latency_ms() / 1e3,
        prefill_attention_s: tally.attention_s,
        decode_attention_s: 0.0,
        sparse_conversion_s: tally.sparse_conversion_s,
        jit_search_s: tally.jit_search_s,
        flops_useful: tally.flops_useful,
        flops_executed: tally.flops_executed,
        jit_searches,
        jit_search_measured_s,
    }
}

/// Worker-thread body shared by the closed- and open-loop runtimes: pops
/// formed batches, prices them on the analytic engine, records metrics and
/// completes every request in the batch.
fn worker_loop(
    cfg: &ServeConfig,
    batches: &BoundedQueue<WorkItem>,
    cache: &JitCache,
    metrics: &Metrics,
    hub: Option<&MetricsHub>,
    started: Instant,
) {
    while let Some(item) = batches.pop() {
        let sample = batch_step_sample(cfg, &item.formed, cache);
        metrics.record_batch(&item.formed, &sample);
        if let Some(h) = hub {
            h.charge(|l| l.charge_step(&sample));
            h.add("pit_hub_steps_total", 1.0);
            h.add("pit_hub_gpu_seconds_total", sample.gpu_s);
            h.add(
                "pit_hub_batch_real_tokens_total",
                item.formed.real_tokens as f64,
            );
            h.add(
                "pit_hub_batch_padded_tokens_total",
                item.formed.padded_tokens as f64,
            );
        }
        for r in item.requests {
            let latency_s = r.submitted.elapsed().as_secs_f64();
            metrics.record_latency(latency_s);
            if let Some(h) = hub {
                // Whole-batch service: the first token lands at batch
                // completion, so TTFT and e2e coincide (cf. `batch_blame`).
                let t_s = started.elapsed().as_secs_f64();
                h.observe(t_s, Latency::Ttft(latency_s));
                h.observe(t_s, Latency::E2e(latency_s));
                h.add("pit_hub_finished_total", 1.0);
            }
            let _ = r.done.send(());
        }
    }
}

/// Scheduler-thread body shared by the closed- and open-loop runtimes:
/// drains the admission queue (waiting up to the batching window for
/// `min_fill` requests), forms batches under the policy, and closes the
/// batch queue once admission closes and drains.
fn scheduler_loop(
    cfg: &ServeConfig,
    admission: &BoundedQueue<Request>,
    batches: &BoundedQueue<WorkItem>,
    min_fill: usize,
) {
    let mut pending: VecDeque<Request> = VecDeque::new();
    'serve: loop {
        if pending.is_empty() {
            match admission.pop() {
                Some(r) => pending.push_back(r),
                None => break 'serve,
            }
        }
        while pending.len() < min_fill {
            match admission.pop_timeout(cfg.batch_window) {
                PopResult::Item(r) => pending.push_back(r),
                PopResult::TimedOut | PopResult::ClosedEmpty => break,
            }
        }
        admission.drain_into(&mut pending);
        while !pending.is_empty() {
            let lens: Vec<usize> = pending.iter().map(|r| r.len).collect();
            let take = cfg.policy.take_count(&lens);
            let requests: Vec<Request> = pending.drain(..take).collect();
            let formed = cfg.policy.form(lens[..take].to_vec());
            if batches.push(WorkItem { formed, requests }).is_err() {
                break 'serve;
            }
            // Under load, keep packing what is already pending; otherwise
            // go wait for new arrivals.
            if pending.len() < min_fill {
                break;
            }
        }
    }
    batches.close();
}

/// Serves `trace` (request lengths, FIFO) through the threaded runtime:
/// `cfg.clients` closed-loop generators, one scheduler, `cfg.workers`
/// workers, one shared bounded JIT cache. Latency percentiles are wall
/// clock; GPU time and throughput come from the analytic cost model.
pub fn serve_trace(cfg: &ServeConfig, trace: &[usize]) -> ServingReport {
    let admission: BoundedQueue<Request> = BoundedQueue::new(cfg.queue_capacity.max(1));
    // Workers apply backpressure to the scheduler through a short queue.
    let batches: BoundedQueue<WorkItem> = BoundedQueue::new(cfg.workers.max(1) * 2);
    let cache = JitCache::with_capacity(cfg.cache_capacity.max(1));
    let metrics = Metrics::new();
    let next = AtomicUsize::new(0);
    // Never wait for more concurrent requests than the clients can have
    // outstanding, or the batching window would expire on every batch.
    let min_fill = cfg.min_fill.clamp(1, cfg.clients.max(1));
    let started = Instant::now();

    thread::scope(|s| {
        for _ in 0..cfg.workers.max(1) {
            s.spawn(|| worker_loop(cfg, &batches, &cache, &metrics, None, started));
        }
        s.spawn(|| scheduler_loop(cfg, &admission, &batches, min_fill));

        let clients: Vec<_> = (0..cfg.clients.max(1))
            .map(|_| {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&len) = trace.get(i) else { break };
                    let (done, done_rx) = mpsc::channel();
                    let request = Request {
                        len,
                        submitted: Instant::now(),
                        done,
                    };
                    if admission.push(request).is_err() {
                        break;
                    }
                    if done_rx.recv().is_err() {
                        break;
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client panicked");
        }
        admission.close();
    });

    metrics.report(
        cfg.policy.name(),
        started.elapsed().as_secs_f64(),
        admission.high_water(),
        CacheStats::of(&cache),
    )
}

/// Exact causal tiling of one batch-served request's latency: its own
/// batch's execution is prefill work, batches that ran while it waited
/// are budget blocking, and the residual (device busy on a batch formed
/// before it arrived, or an idle-clock artifact) is queue delay — the
/// three tiles telescope to `end - arrival` by construction.
fn batch_blame(arrival_s: f64, end_s: f64, blocked_s: f64, execute_s: f64) -> BlameBreakdown {
    let mut b = BlameBreakdown::new(arrival_s);
    b.first_token_s = Some(end_s);
    b.end_s = end_s;
    b.finished = true;
    // Whole-batch service emits the "first token" at completion: the
    // TTFT and e2e critical paths coincide, so every tile counts in both.
    let e2e = end_s - arrival_s;
    b.charge(BlameCategory::PrefillExecute, execute_s, true);
    b.charge(BlameCategory::TokenBudgetFull, blocked_s, true);
    b.charge(
        BlameCategory::QueueBehindAdmission,
        e2e - blocked_s - execute_s,
        true,
    );
    b
}

/// Open-loop replay of an [`ArrivalTrace`] through the threaded runtime:
/// one submitter thread admits each request at its recorded
/// `arrival_s` timestamp (blocking only on queue backpressure, never on
/// completions — the open-loop discipline), while the scheduler and
/// workers run exactly as in [`serve_trace`]. Request latency is wall
/// clock from submission to batch completion, so queueing delay under the
/// trace's real arrival pattern is measured rather than implied.
///
/// This is the first step of the ROADMAP's async front-end item: arrivals
/// are driven by the trace clock instead of closed-loop clients.
pub fn serve_trace_arrivals(cfg: &ServeConfig, trace: &ArrivalTrace) -> ServingReport {
    serve_trace_arrivals_observed(cfg, trace, None)
}

/// [`serve_trace_arrivals`] that additionally publishes live metrics into
/// a [`MetricsHub`] while the threaded replay runs: the submitter
/// publishes admissions, rejections and the live queue-depth gauge on the
/// trace clock; workers publish per-batch ledger charges, token counters
/// and per-request TTFT/e2e observations on the wall clock since run
/// start (the two clocks coincide while the submitter keeps schedule).
/// The hub is write-only for every thread — no publisher reads it — so a
/// concurrent scraper never perturbs scheduling decisions.
pub fn serve_trace_arrivals_observed(
    cfg: &ServeConfig,
    trace: &ArrivalTrace,
    hub: Option<&MetricsHub>,
) -> ServingReport {
    let admission: BoundedQueue<Request> = BoundedQueue::new(cfg.queue_capacity.max(1));
    let batches: BoundedQueue<WorkItem> = BoundedQueue::new(cfg.workers.max(1) * 2);
    let cache = JitCache::with_capacity(cfg.cache_capacity.max(1));
    let metrics = Metrics::new();
    let min_fill = cfg.min_fill.max(1);
    let started = Instant::now();

    let windows = thread::scope(|s| {
        for _ in 0..cfg.workers.max(1) {
            s.spawn(|| worker_loop(cfg, &batches, &cache, &metrics, hub, started));
        }
        s.spawn(|| scheduler_loop(cfg, &admission, &batches, min_fill));

        // Open-loop submitter: sleep to each arrival timestamp, then admit
        // — blocking on backpressure or shedding the request, per the
        // configured admission mode. Window counters stay on the trace
        // clock (the arrival schedule), the one axis both replays share.
        let submitter = s.spawn(|| {
            let mut windows = cfg.arrival_window_s.map(WindowSeries::new);
            for (i, (&len, &arrival)) in trace.lens.iter().zip(&trace.arrival_s).enumerate() {
                let target = started + Duration::from_secs_f64(arrival);
                if let Some(wait) = target.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                let (done, _done_rx) = mpsc::channel();
                let request = Request {
                    len,
                    submitted: Instant::now(),
                    done,
                };
                match cfg.admission {
                    AdmissionMode::Block => {
                        if admission.push(request).is_err() {
                            break;
                        }
                        if let Some(w) = windows.as_mut() {
                            w.admitted(arrival);
                        }
                        if let Some(h) = hub {
                            h.on_record(
                                arrival,
                                i as u64,
                                &TraceEvent::Admitted { arrival_s: arrival },
                            );
                            h.set_gauge("pit_hub_admission_queue_depth", admission.len() as f64);
                        }
                    }
                    AdmissionMode::RejectWhenFull => match admission.try_push(request) {
                        Ok(()) => {
                            if let Some(w) = windows.as_mut() {
                                w.admitted(arrival);
                            }
                            if let Some(h) = hub {
                                h.on_record(
                                    arrival,
                                    i as u64,
                                    &TraceEvent::Admitted { arrival_s: arrival },
                                );
                                h.set_gauge(
                                    "pit_hub_admission_queue_depth",
                                    admission.len() as f64,
                                );
                            }
                        }
                        Err(TryPushError::Full) => {
                            metrics.record_rejected();
                            if let Some(w) = windows.as_mut() {
                                w.rejected(arrival);
                            }
                            if let Some(h) = hub {
                                h.on_record(arrival, i as u64, &TraceEvent::Rejected);
                            }
                        }
                        Err(TryPushError::ClosedQueue) => break,
                    },
                }
            }
            windows
        });
        let windows = submitter.join().expect("submitter panicked");
        admission.close();
        windows
    });
    if let Some(h) = hub {
        h.finish();
    }

    let mut report = metrics.report(
        cfg.policy.name(),
        started.elapsed().as_secs_f64(),
        admission.high_water(),
        CacheStats::of(&cache),
    );
    report.windows = windows.map(WindowSeries::into_stats);
    report
}

/// Deterministic open-loop counterpart of [`serve_trace_arrivals`]: the
/// trace's arrival timestamps drive a virtual clock — each batch is formed
/// from exactly the requests that have arrived by the time the single
/// modelled device frees up, and a request's latency is its completion
/// time minus its arrival time (queueing + service, no host noise). A
/// trace whose requests all arrive at time zero queues everything up
/// front and drains it FIFO: the deterministic counterpart of
/// [`serve_trace`].
pub fn simulate_trace_arrivals(cfg: &ServeConfig, trace: &ArrivalTrace) -> ServingReport {
    let cache = JitCache::with_capacity(cfg.cache_capacity.max(1));
    let metrics = Metrics::new();
    let started = Instant::now();
    let mut clock_s = 0.0_f64;
    let mut next = 0usize;
    // (len, arrival_s, blocked_s): `blocked_s` accumulates the modelled
    // seconds the device spent on batches formed while this request was
    // queued but not taken — blame's budget-blocking tile.
    let mut pending: VecDeque<(usize, f64, f64)> = VecDeque::new();
    let mut high_water = 0usize;
    let mut blame = BlameAggregate::new();
    let mut windows = cfg.arrival_window_s.map(WindowSeries::new);
    while next < trace.len() || !pending.is_empty() {
        if pending.is_empty() {
            // Device idle: jump to the next arrival, charging the gap.
            let arrival = trace.arrival_s[next];
            if arrival > clock_s {
                metrics.charge_idle(arrival - clock_s);
                clock_s = arrival;
            }
        }
        while next < trace.len() && trace.arrival_s[next] <= clock_s {
            // Reject-when-full sheds arrivals beyond the queue bound at
            // their arrival instant (the deterministic twin of try_push);
            // blocking mode queues without bound, as a stalled submitter
            // eventually admits everything.
            if cfg.admission == AdmissionMode::RejectWhenFull
                && pending.len() >= cfg.queue_capacity.max(1)
            {
                metrics.record_rejected();
                if let Some(w) = windows.as_mut() {
                    w.rejected(trace.arrival_s[next]);
                }
            } else {
                pending.push_back((trace.lens[next], trace.arrival_s[next], 0.0));
                if let Some(w) = windows.as_mut() {
                    w.admitted(trace.arrival_s[next]);
                }
            }
            next += 1;
        }
        high_water = high_water.max(pending.len());
        if let Some(w) = windows.as_mut() {
            w.queue_depth(clock_s, pending.len());
        }
        let lens: Vec<usize> = pending.iter().map(|&(l, _, _)| l).collect();
        let take = cfg.policy.take_count(&lens);
        let taken: Vec<(usize, f64, f64)> = pending.drain(..take).collect();
        let formed = cfg.policy.form(lens[..take].to_vec());
        let sample = batch_step_sample(cfg, &formed, &cache);
        clock_s += sample.gpu_s;
        metrics.record_batch(&formed, &sample);
        for (_, arrival, blocked_s) in taken {
            metrics.record_latency(clock_s - arrival);
            blame.fold(&batch_blame(arrival, clock_s, blocked_s, sample.gpu_s));
        }
        for (_, _, blocked_s) in pending.iter_mut() {
            *blocked_s += sample.gpu_s;
        }
    }
    let mut report = metrics.report(
        cfg.policy.name(),
        started.elapsed().as_secs_f64(),
        high_water,
        CacheStats::of(&cache),
    );
    report.windows = windows.map(WindowSeries::into_stats);
    if blame.requests() > 0 {
        report.blame = Some(blame.summary());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_workloads::DatasetSpec;

    fn small_cfg(policy: BatchPolicy) -> ServeConfig {
        let mut cfg = ServeConfig::new(policy);
        // 2 layers keep the analytic forward pass fast in unit tests.
        cfg.model.layers = 2;
        cfg
    }

    fn trace() -> Vec<usize> {
        DatasetSpec::mnli().sample_lengths(96, 42)
    }

    /// The closed-loop drain: every request of `lens` queued at time zero.
    fn drain(cfg: &ServeConfig, lens: &[usize]) -> ServingReport {
        let trace = ArrivalTrace {
            lens: lens.to_vec(),
            arrival_s: vec![0.0; lens.len()],
        };
        simulate_trace_arrivals(cfg, &trace)
    }

    #[test]
    fn threaded_runtime_completes_every_request() {
        let cfg = small_cfg(BatchPolicy::PaddingFree { token_budget: 1024 });
        let t = trace();
        let report = serve_trace(&cfg, &t);
        assert_eq!(report.requests, t.len());
        assert_eq!(report.real_tokens, t.iter().sum::<usize>());
        assert!(report.batches >= 1);
        assert!(report.gpu_time_s > 0.0);
        assert!(report.latency.p50 > 0.0);
        assert!(report.latency.p50 <= report.latency.p95);
        assert!(report.latency.p95 <= report.latency.p99);
        assert!(report.queue_high_water <= cfg.queue_capacity);
        assert_eq!(report.padding_waste(), 0.0, "padding-free adds no pad");
    }

    #[test]
    fn padded_runtime_also_conserves_tokens() {
        let cfg = small_cfg(BatchPolicy::PaddedToLongest { max_batch: 8 });
        let t = trace();
        let report = serve_trace(&cfg, &t);
        assert_eq!(report.requests, t.len());
        assert_eq!(report.real_tokens, t.iter().sum::<usize>());
        assert!(report.padded_tokens >= report.real_tokens);
    }

    #[test]
    fn padding_free_beats_padded_on_waste_and_throughput() {
        let t = trace();
        let free = drain(
            &small_cfg(BatchPolicy::PaddingFree { token_budget: 2048 }),
            &t,
        );
        let padded = drain(
            &small_cfg(BatchPolicy::PaddedToLongest { max_batch: 16 }),
            &t,
        );
        let bucketed = drain(
            &small_cfg(BatchPolicy::Bucketed {
                max_batch: 16,
                buckets: 4,
            }),
            &t,
        );
        assert!(free.padding_waste() < bucketed.padding_waste());
        assert!(bucketed.padding_waste() < padded.padding_waste());
        assert!(free.tokens_per_s() > padded.tokens_per_s());
        assert!(free.tokens_per_s() > bucketed.tokens_per_s());
        // Same work arrived; the padded layout just burns more GPU time.
        assert_eq!(free.real_tokens, padded.real_tokens);
        assert!(free.gpu_time_s < padded.gpu_time_s);
    }

    #[test]
    fn simulate_trace_is_deterministic() {
        let cfg = small_cfg(BatchPolicy::PaddingFree { token_budget: 1024 });
        let t = trace();
        let a = drain(&cfg, &t);
        let mut b = drain(&cfg, &t);
        // Cache misses charge the *modelled* Algorithm-1 search cost, so
        // GPU time — and with it the whole report — repeats bit-for-bit.
        // The host wall clock is the one measured quantity left.
        b.wall_time_s = a.wall_time_s;
        assert_eq!(a, b);
        assert!(a.ledger.conserved());
        // GPU time is the ledger's busy time: one accumulator.
        assert_eq!(a.gpu_time_s, a.ledger.busy_s());
        // No arrivals in the closed drain: the virtual clock never idles.
        assert_eq!(a.ledger.idle_ps, 0);
    }

    #[test]
    fn shape_classes_keep_the_jit_cache_hot() {
        let cfg = small_cfg(BatchPolicy::PaddingFree { token_budget: 2048 });
        let report = drain(&cfg, &trace());
        let lookups = report.cache.hits + report.cache.misses;
        assert_eq!(lookups, report.batches as u64);
        // Budget-packed batches land in few 32-token shape classes, so
        // selections are reused across batches once warm.
        assert!(report.cache.misses <= report.batches as u64);
        assert!(report.cache.evictions == 0, "capacity 256 is not exceeded");
    }

    #[test]
    fn cache_bound_evicts_under_shape_churn() {
        let mut cfg = small_cfg(BatchPolicy::PaddedToLongest { max_batch: 2 });
        cfg.cache_capacity = 1;
        // Wildly varying lengths force a new padded shape class per batch.
        let t: Vec<usize> = (1..=24).map(|i| i * 37).collect();
        let report = drain(&cfg, &t);
        assert!(report.cache.evictions > 0);
    }

    #[test]
    fn open_loop_simulation_charges_queueing_delay() {
        let cfg = small_cfg(BatchPolicy::PaddingFree { token_budget: 1024 });
        let spec = DatasetSpec::mnli();
        // Same lengths, two arrival intensities: an overloaded trace must
        // show higher latency than a trickle, with identical token work.
        let slow = ArrivalTrace::poisson(&spec, 64, 5.0, 17);
        let fast = ArrivalTrace {
            lens: slow.lens.clone(),
            arrival_s: slow.arrival_s.iter().map(|t| t / 1000.0).collect(),
        };
        let r_slow = simulate_trace_arrivals(&cfg, &slow);
        let r_fast = simulate_trace_arrivals(&cfg, &fast);
        assert_eq!(r_slow.requests, 64);
        assert_eq!(r_fast.requests, 64);
        assert_eq!(r_slow.real_tokens, r_fast.real_tokens);
        // The trickle sees near-service-time latency; the burst queues.
        assert!(r_fast.latency.p99 >= r_slow.latency.p99);
        // Batches under the trickle are small (often singletons); the
        // burst packs to the budget.
        assert!(r_fast.batches <= r_slow.batches);
        // Replays are bit-deterministic: the virtual clock only ever adds
        // modelled costs (cache misses charge the modelled search time).
        let mut again = simulate_trace_arrivals(&cfg, &fast);
        again.wall_time_s = r_fast.wall_time_s;
        assert_eq!(again, r_fast);
        assert_eq!(again.padded_tokens, again.real_tokens, "padding-free");
        // Idle + busy tile the replay's virtual clock; the trickle idles
        // between arrivals, the burst barely does.
        assert!(r_slow.ledger.conserved() && r_fast.ledger.conserved());
        assert!(r_slow.ledger.idle_ps > 0);
        assert!(r_slow.utilization.busy_fraction < r_fast.utilization.busy_fraction);
    }

    #[test]
    fn open_loop_threaded_replay_completes_every_request() {
        let cfg = small_cfg(BatchPolicy::PaddingFree { token_budget: 1024 });
        // High rate so the replay finishes quickly in CI.
        let trace = ArrivalTrace::poisson(&DatasetSpec::mnli(), 48, 2000.0, 29);
        let report = serve_trace_arrivals(&cfg, &trace);
        assert_eq!(report.requests, trace.len());
        assert_eq!(report.real_tokens, trace.total_tokens());
        assert_eq!(report.padding_waste(), 0.0);
        assert!(report.latency.p50 > 0.0);
        assert!(report.queue_high_water <= cfg.queue_capacity);
    }

    #[test]
    fn reject_when_full_sheds_load_deterministically() {
        let mut cfg = small_cfg(BatchPolicy::PaddingFree { token_budget: 1024 });
        cfg.queue_capacity = 4;
        cfg.admission = AdmissionMode::RejectWhenFull;
        // Everything arrives in one burst: only the queue bound survives.
        let trace = ArrivalTrace {
            lens: vec![64; 32],
            arrival_s: vec![0.0; 32],
        };
        let r = simulate_trace_arrivals(&cfg, &trace);
        assert_eq!(r.rejected, 32 - 4, "burst beyond the bound is shed");
        assert_eq!(r.requests, 4);
        assert_eq!(r.requests + r.rejected, trace.len());
        let again = simulate_trace_arrivals(&cfg, &trace);
        assert_eq!(again.rejected, r.rejected, "rejection is deterministic");
        // Blocking admission never rejects — it queues unbounded instead.
        cfg.admission = AdmissionMode::Block;
        let r = simulate_trace_arrivals(&cfg, &trace);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.requests, trace.len());
        assert!(r.to_string().contains("rejected"));
    }

    #[test]
    fn bursty_replay_reports_per_window_series() {
        let mut cfg = small_cfg(BatchPolicy::PaddingFree { token_budget: 1024 });
        cfg.queue_capacity = 4;
        cfg.admission = AdmissionMode::RejectWhenFull;
        cfg.arrival_window_s = Some(0.05);
        let trace = ArrivalTrace::bursty(&DatasetSpec::mnli(), 96, 400.0, 0.2, 0.5, 9);
        let r = simulate_trace_arrivals(&cfg, &trace);
        let windows = r.windows.as_ref().expect("windowing was requested");
        assert!(!windows.is_empty());
        // The series accounts for the whole trace, window by window.
        let admitted: u64 = windows.iter().map(|w| w.admitted).sum();
        let rejected: u64 = windows.iter().map(|w| w.rejected).sum();
        assert_eq!(admitted as usize, r.requests);
        assert_eq!(rejected as usize, r.rejected);
        // Bursts show: some window admitted strictly more than the mean.
        let mean = admitted as f64 / windows.len() as f64;
        assert!(
            windows.iter().any(|w| w.admitted as f64 > mean),
            "a bursty trace should have at least one above-mean window"
        );
        assert!(windows
            .iter()
            .all(|w| w.peak_queue_depth <= cfg.queue_capacity));
        assert!(r.to_string().contains("arrival windows"));
        // Replays are deterministic, series included.
        assert_eq!(simulate_trace_arrivals(&cfg, &trace).windows, r.windows);
        // Off by default: no windows unless asked for.
        cfg.arrival_window_s = None;
        assert!(simulate_trace_arrivals(&cfg, &trace).windows.is_none());
    }

    #[test]
    fn reject_when_full_threaded_accounts_every_request() {
        let mut cfg = small_cfg(BatchPolicy::PaddingFree { token_budget: 1024 });
        cfg.queue_capacity = 2;
        cfg.admission = AdmissionMode::RejectWhenFull;
        // High rate over a tiny queue: some rejections are likely, but
        // served + rejected must account for the whole trace either way.
        let trace = ArrivalTrace::poisson(&DatasetSpec::mnli(), 48, 5000.0, 29);
        let report = serve_trace_arrivals(&cfg, &trace);
        assert_eq!(report.requests + report.rejected, trace.len());
        assert!(report.queue_high_water <= cfg.queue_capacity);
    }

    #[test]
    fn shape_class_quantises_to_micro_tiles() {
        assert_eq!(shape_class(1), 32);
        assert_eq!(shape_class(32), 32);
        assert_eq!(shape_class(33), 64);
        assert_eq!(shape_class(2048), 2048);
    }

    #[test]
    fn occupancy_mask_matches_waste_fraction() {
        let m = occupancy_mask(500, 1000);
        assert_eq!(m.rows(), 1000);
        assert_eq!(m.nnz(), 500 * 64);
        // Large batches are scaled down, preserving the density.
        let big = occupancy_mask(4096, 8192);
        assert!(big.rows() <= 1024);
        assert!((big.density() - 0.5).abs() < 0.01);
    }
}
