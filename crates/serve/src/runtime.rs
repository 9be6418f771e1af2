//! The serving runtime: admission → continuous batching → worker pool.
//!
//! Three kinds of threads cooperate inside one `std::thread::scope`:
//!
//! - 8 **clients** (closed-loop load generators) pull the next request off
//!   the shared trace, push it into the bounded admission queue (blocking
//!   on backpressure) and wait on their own completion channel before
//!   submitting again;
//! - one **scheduler** drains the admission queue, waits up to 2 ms per
//!   missing request for a batch of 8, and forms batches under the
//!   configured [`BatchPolicy`];
//! - 2 **workers** pop formed batches and price each on their own engine
//!   through the step pricer both runtimes share (`crate::step`): a
//!   transformer forward pass over the batch's effective lengths. They
//!   share one bounded [`JitCache`], so per-shape Algorithm-1 selections
//!   are searched once and reused across workers (§5.6: shapes repeat,
//!   patterns don't).
//!
//! [`serve_trace`] runs that threaded runtime and [`serve_trace_arrivals`]
//! its open-loop variant, whose one submitter never waits for a
//! completion, so its requests carry no channel;
//! [`simulate_trace_arrivals`] runs the same scheduler and pricer
//! synchronously on a virtual clock, every batch on one engine, for
//! deterministic comparisons (benches, tests). A trace whose requests all
//! arrive at time zero replays the closed-loop drain. Given a live
//! `MetricsHub`, [`serve_trace_arrivals`] publishes the open-loop run into
//! it as lifecycle events only, all on one clock: wall seconds since the
//! run started.

use crate::metrics::{CacheStats, Metrics, ServingReport};
use crate::queue::{BoundedQueue, PopResult};
use crate::scheduler::{BatchPolicy, FormedBatch};
use crate::step::{price_step, StepWork, CACHE_CAPACITY};
use pit_core::jit::JitCache;
use pit_gpusim::DeviceSpec;
use pit_models::{Engine, ModelConfig};
use pit_tensor::DType;
use pit_trace::{
    BlameAggregate, BlameBreakdown, BlameCategory, MetricsHub, TraceEvent, WindowSeries,
    DEVICE_LANE,
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

/// Worker threads executing batches.
const WORKERS: usize = 2;
/// Closed-loop client threads generating load in [`serve_trace`].
const CLIENTS: usize = 8;
/// Target batch fill: the scheduler waits up to [`BATCH_WINDOW`] per
/// missing request for the pending set to reach this size. At most
/// [`CLIENTS`], or the closed loop's window would expire on every batch.
const MIN_FILL: usize = 8;
const _: () = assert!(MIN_FILL <= CLIENTS);
/// How long the scheduler waits for more arrivals before forming a
/// smaller batch.
const BATCH_WINDOW: Duration = Duration::from_millis(2);
/// Precision of every prefill run.
const DTYPE: DType = DType::F32;

/// Configuration of one serving run.
///
/// Every run serves on the modelled A100-80GB in fp32 with 2 workers
/// sharing a 256-entry JIT cache; the scheduler waits up to 2 ms per
/// missing request for a batch of 8, and the closed loop
/// ([`serve_trace`]) runs 8 clients.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Batch-formation policy.
    pub policy: BatchPolicy,
    /// Full-queue behaviour of the open-loop front end.
    pub admission: AdmissionMode,
    /// Admission-queue capacity (backpressure bound).
    pub queue_capacity: usize,
    /// The model every request runs through.
    pub model: ModelConfig,
    /// When set, the open-loop replays bucket admitted/rejected counts
    /// (and, in the deterministic replay, peak queue depth) into windows
    /// this many seconds wide — [`ServingReport::windows`]. `None` (the
    /// default) keeps the replays window-free; bursty traces are where
    /// the series earns its keep, since end-of-run totals hide bursts.
    pub arrival_window_s: Option<f64>,
}

impl ServeConfig {
    /// A default serving setup for `policy`: BERT-base, blocking admission
    /// behind a 64-request queue, no arrival windows. Fixed for every run:
    /// the A100-80GB, fp32, 2 workers, a 256-entry JIT cache, 8 clients
    /// and a batch fill of 8 within 2 ms per missing request.
    pub fn new(policy: BatchPolicy) -> Self {
        ServeConfig {
            policy,
            admission: AdmissionMode::Block,
            queue_capacity: 64,
            model: ModelConfig::bert_base(),
            arrival_window_s: None,
        }
    }

    /// The engine a worker, or a virtual-clock replay, prices every one
    /// of its batches on.
    fn engine(&self) -> Engine {
        Engine::new(DeviceSpec::a100_80gb(), DTYPE, self.policy.framework())
    }
}

/// One admitted request travelling through the runtime.
struct Request {
    /// The request's index in its trace: its lifecycle lane.
    lane: u64,
    len: usize,
    submitted: Instant,
    /// Where a closed-loop client waits for the request to complete;
    /// `None` in the open loop, where nobody waits.
    done: Option<mpsc::Sender<()>>,
}

/// One batch handed from the scheduler to a worker.
struct WorkItem {
    formed: FormedBatch,
    requests: Vec<Request>,
}

/// Worker-thread body shared by the closed- and open-loop runtimes: pops
/// formed batches, prices each on the worker's one engine, records metrics
/// and completes every request in the batch.
fn worker_loop(
    cfg: &ServeConfig,
    batches: &BoundedQueue<WorkItem>,
    cache: &JitCache,
    metrics: &Metrics,
    hub: Option<&MetricsHub>,
    started: Instant,
) {
    let mut eng = cfg.engine();
    while let Some(item) = batches.pop() {
        let sample = price_step(&mut eng, cache, &cfg.model, StepWork::Prefill(&item.formed));
        metrics.record_batch(&item.formed, &sample);
        if let Some(h) = hub {
            let t_s = started.elapsed().as_secs_f64();
            h.charge(|l| l.charge_step(&sample));
            h.on_record(
                t_s,
                DEVICE_LANE,
                &TraceEvent::Step {
                    prefill_rows: item.formed.padded_tokens,
                    decode_slots: 0,
                    gpu_s: sample.gpu_s,
                },
            );
            // Whole-batch service: every request's prompt runs and its
            // first (and last) token lands at completion (cf. `batch_blame`).
            for r in &item.requests {
                for event in [
                    TraceEvent::PrefillChunk { tokens: r.len },
                    TraceEvent::FirstToken,
                    TraceEvent::Finished,
                ] {
                    h.on_record(t_s, r.lane, &event);
                }
            }
        }
        for r in item.requests {
            metrics.record_latency(r.submitted.elapsed().as_secs_f64());
            if let Some(done) = r.done {
                let _ = done.send(());
            }
        }
    }
}

/// Scheduler-thread body shared by the closed- and open-loop runtimes:
/// drains the admission queue (waiting up to the batching window for
/// [`MIN_FILL`] requests), forms batches under the policy, and closes the
/// batch queue once admission closes and drains.
fn scheduler_loop(
    cfg: &ServeConfig,
    admission: &BoundedQueue<Request>,
    batches: &BoundedQueue<WorkItem>,
) {
    let mut pending: VecDeque<Request> = VecDeque::new();
    'serve: loop {
        if pending.is_empty() {
            match admission.pop() {
                Some(r) => pending.push_back(r),
                None => break 'serve,
            }
        }
        while pending.len() < MIN_FILL {
            match admission.pop_timeout(BATCH_WINDOW) {
                PopResult::Item(r) => pending.push_back(r),
                PopResult::TimedOut | PopResult::ClosedEmpty => break,
            }
        }
        admission.drain_into(&mut pending);
        while !pending.is_empty() {
            let (formed, taken) = cfg.policy.take_batch(&mut pending, |r| r.len);
            let requests = taken.collect();
            if batches.push(WorkItem { formed, requests }).is_err() {
                break 'serve;
            }
            // Under load, keep packing what is already pending; otherwise
            // go wait for new arrivals.
            if pending.len() < MIN_FILL {
                break;
            }
        }
    }
    batches.close();
}

/// Serves `trace` (request lengths, FIFO) through the threaded runtime:
/// 8 closed-loop generators, one scheduler, 2 workers, one shared bounded
/// JIT cache. Latency percentiles are wall clock; GPU time and throughput
/// come from the analytic cost model.
pub fn serve_trace(cfg: &ServeConfig, trace: &[usize]) -> ServingReport {
    let admission: BoundedQueue<Request> = BoundedQueue::new(cfg.queue_capacity.max(1));
    // Workers apply backpressure to the scheduler through a short queue.
    let batches: BoundedQueue<WorkItem> = BoundedQueue::new(WORKERS * 2);
    let cache = JitCache::with_capacity(CACHE_CAPACITY);
    let metrics = Metrics::new();
    let next = AtomicUsize::new(0);
    let started = Instant::now();

    thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| worker_loop(cfg, &batches, &cache, &metrics, None, started));
        }
        s.spawn(|| scheduler_loop(cfg, &admission, &batches));

        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    // One channel per client: it has one request in flight.
                    let (done, done_rx) = mpsc::channel();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&len) = trace.get(i) else { break };
                        let request = Request {
                            lane: i as u64,
                            len,
                            submitted: Instant::now(),
                            done: Some(done.clone()),
                        };
                        if admission.push(request).is_err() {
                            break;
                        }
                        // Waits for the worker's signal (`done` keeps it open).
                        let _ = done_rx.recv();
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
/// With a `hub`, the run also publishes live metrics into that
/// [`MetricsHub`] as lifecycle events on one clock, wall seconds since the
/// run started, with each request's trace index as its lane. The
/// submitter publishes `Admitted` at the instant it submits a request (or
/// `Rejected` at the instant it sheds one) and the queue depth; at batch
/// completion a worker publishes the batch's ledger charge, a device
/// `Step`, and each request's `PrefillChunk`, `FirstToken` and
/// `Finished`. So the hub's TTFT and e2e are submission to completion, as
/// the report measures them, and every admitted request's lane closes.
/// The hub is write-only for every thread — no publisher reads it — so a
/// concurrent scraper never perturbs scheduling decisions.
pub fn serve_trace_arrivals(
    cfg: &ServeConfig,
    trace: &ArrivalTrace,
    hub: Option<&MetricsHub>,
) -> ServingReport {
    let capacity = cfg.queue_capacity.max(1);
    let admission: BoundedQueue<Request> = BoundedQueue::new(capacity);
    let batches: BoundedQueue<WorkItem> = BoundedQueue::new(WORKERS * 2);
    let cache = JitCache::with_capacity(CACHE_CAPACITY);
    let metrics = Metrics::new();
    let started = Instant::now();

    let windows = thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| worker_loop(cfg, &batches, &cache, &metrics, hub, started));
        }
        s.spawn(|| scheduler_loop(cfg, &admission, &batches));

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
                let request = Request {
                    lane: i as u64,
                    len,
                    submitted: Instant::now(),
                    done: None,
                };
                // This thread is the queue's only producer and closes it
                // only after the loop, so room seen here is still there at
                // the push below.
                let admit = cfg.admission == AdmissionMode::Block || admission.len() < capacity;
                if let Some(h) = hub {
                    // Published before the push: once queued, a worker may
                    // finish the request at any moment.
                    let s = request.submitted.duration_since(started).as_secs_f64();
                    let event = if admit {
                        TraceEvent::Admitted { arrival_s: s }
                    } else {
                        TraceEvent::Rejected
                    };
                    h.on_record(s, request.lane, &event);
                }
                if !admit {
                    metrics.record_rejected();
                } else if admission.push(request).is_err() {
                    break;
                }
                if let Some(w) = windows.as_mut() {
                    if admit {
                        w.admitted(arrival);
                    } else {
                        w.rejected(arrival);
                    }
                }
                if let Some(h) = hub {
                    h.set_queue_depth(admission.len());
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
    let cache = JitCache::with_capacity(CACHE_CAPACITY);
    let mut eng = cfg.engine();
    let metrics = Metrics::new();
    let started = Instant::now();
    let mut clock_s = 0.0_f64;
    let mut next = 0usize;
    // (len, arrival_s) of each queued request, FIFO.
    let mut pending: VecDeque<(usize, f64)> = VecDeque::new();
    // The queued requests grouped by the pass that admitted them, oldest
    // first, as (requests, blocked_s): `blocked_s` accumulates the modelled
    // seconds the device spent on batches formed while the group was
    // queued but not taken — blame's budget-blocking tile. Requests
    // admitted together wait through the same batches, so a batch adds its
    // time once per group, not once per queued request.
    let mut groups: VecDeque<(usize, f64)> = VecDeque::new();
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
        let queued = pending.len();
        while next < trace.len() && trace.arrival_s[next] <= clock_s {
            // Reject-when-full sheds arrivals beyond the queue bound at
            // their arrival instant (the deterministic twin of the
            // threaded submitter's check);
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
                pending.push_back((trace.lens[next], trace.arrival_s[next]));
                if let Some(w) = windows.as_mut() {
                    w.admitted(trace.arrival_s[next]);
                }
            }
            next += 1;
        }
        if pending.len() > queued {
            groups.push_back((pending.len() - queued, 0.0));
        }
        high_water = high_water.max(pending.len());
        if let Some(w) = windows.as_mut() {
            w.queue_depth(clock_s, pending.len());
        }
        let (formed, taken) = cfg.policy.take_batch(&mut pending, |&(len, _)| len);
        let sample = price_step(&mut eng, &cache, &cfg.model, StepWork::Prefill(&formed));
        clock_s += sample.gpu_s;
        metrics.record_batch(&formed, &sample);
        for (_, arrival) in taken {
            let group = groups
                .front_mut()
                .expect("every queued request is in a group");
            let blocked_s = group.1;
            group.0 -= 1;
            if group.0 == 0 {
                groups.pop_front();
            }
            metrics.record_latency(clock_s - arrival);
            blame.fold(&batch_blame(arrival, clock_s, blocked_s, sample.gpu_s));
        }
        for (_, blocked_s) in groups.iter_mut() {
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
    use crate::step::{occupancy_mask, shape_class};
    use pit_sparse::Mask;
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
        let report = serve_trace_arrivals(&cfg, &trace, None);
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
        let report = serve_trace_arrivals(&cfg, &trace, None);
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

    #[test]
    fn occupancy_mask_equals_the_per_bit_mask() {
        // Below and above the 1024-row cap, where rows are scaled down.
        for (real, padded) in [
            (0, 1),
            (1, 1),
            (500, 1000),
            (1000, 1000),
            (700, 3000),
            (4097, 8193),
        ] {
            let m = occupancy_mask(real, padded);
            let scale = padded.div_ceil(1024).max(1);
            let real_rows = (real / scale).min(m.rows());
            assert_eq!(m, Mask::from_fn(m.rows(), 64, |r, _| r < real_rows));
        }
    }
}
