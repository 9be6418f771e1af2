//! Heap allocations of a decode replay and of the trace generator behind
//! the shared-prefix replays, counted by a global allocator.
//!
//! A decode step touches each running sequence once, by its KV slot, and
//! builds its shape and chunk plan in buffers the scheduler reuses; with
//! no sink, hub or exemplar reservoir attached, recording builds nothing.
//! KV-sparsity compaction lists the evicted table positions in one reused
//! buffer and releases them by slot. What a replay still allocates follows
//! its requests (their page tables, the report's sketches), not its steps,
//! so a long-output trace of many more steps than requests must stay
//! within a small budget per request, and so must a pressured replay
//! with swap, prefix caching and KV sparsity on.
//!
//! `SharedPrefixSpec::prompts` allocates each prompt once at its final
//! length and each pool stream once per call, however many prompts copy
//! it.

use pit::gpusim::DeviceSpec;
use pit::models::ModelConfig;
use pit::serve::decode::{
    simulate_decode_trace, DecodePolicy, DecodeServeConfig, KvSparsityPolicy, PreemptPolicy,
};
use pit::workloads::{ArrivalTrace, DatasetSpec, DecodeSpec, DecodeTrace, SharedPrefixSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

/// Heap allocations one request may cost a replay.
const BUDGET_PER_REQUEST: f64 = 16.0;

/// Heap allocations one request may cost a pressured replay: its page
/// table, swap and prefix-index entries on top of the plain replay's.
const PRESSURED_BUDGET_PER_REQUEST: f64 = 40.0;

/// Allocations a `prompts` call may make beyond one per prompt and one
/// per pool stream drawn. It makes five: the result's outer vector, the
/// two Zipf tables and the two stream memos.
const PROMPTS_FIXED_ALLOCATIONS: u64 = 8;

/// The system allocator, counting fresh and resized blocks on threads
/// that have counting on.
struct Counting;

thread_local! {
    /// This thread's allocations since counting went on; `None` while it
    /// is off. Per thread, so that tests running side by side do not add
    /// to each other's counts.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the heap allocations it made on
/// this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    let out = f();
    let counted = ALLOCATIONS.with(|c| c.replace(None));
    (out, counted.expect("counting was on"))
}

#[test]
fn a_decode_replay_allocates_per_request_not_per_step() {
    // The hostbench `decode_steady` configuration, over a long-output
    // trace: about 30 steps per request.
    let cfg = DecodeServeConfig::builder(ModelConfig::opt("1.3B"), DeviceSpec::a100_80gb())
        .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 128 })
        .build()
        .expect("valid decode_steady config");
    let trace = DecodeTrace::poisson(
        &DatasetSpec::mnli(),
        &DecodeSpec::geometric(512.0, 1, 2048),
        60,
        300.0,
        1,
    );
    // The first replay pays for anything built once per process.
    let warm = simulate_decode_trace(&cfg, &trace);
    let (report, allocated) = allocations(|| simulate_decode_trace(&cfg, &trace));
    assert_eq!(report, warm, "replays are deterministic");
    assert_eq!(report.iterations, 1_842);
    let per_request = allocated as f64 / trace.len() as f64;
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{allocated} heap allocations for {} requests over {} steps: {per_request:.1} per \
         request, budget {BUDGET_PER_REQUEST}",
        trace.len(),
        report.iterations
    );
}

#[test]
fn a_pressured_replay_allocates_per_request_not_per_step() {
    // The hostbench `decode_pressure` configuration and its first trace at
    // the default seed, cut as hostbench cuts it (60,000 prompt + output
    // tokens), with no sink attached.
    let cfg = DecodeServeConfig::builder(ModelConfig::opt("1.3B"), DeviceSpec::a100_80gb())
        .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
        .kv_pages(640)
        .prefix_caching(true)
        .preempt(PreemptPolicy::SwapToHost)
        .kv_sparsity(KvSparsityPolicy::HeavyHitter {
            recent: 128,
            heavy: 128,
        })
        .build()
        .expect("valid decode_pressure config");
    let seed = 64;
    let arrivals = ArrivalTrace::bursty(&DatasetSpec::mnli(), 400, 300.0, 0.1, 0.1, seed);
    let mut trace = SharedPrefixSpec::assistants().decode_trace(
        &DecodeSpec::summarization(),
        arrivals.arrival_s,
        seed,
    );
    let mut served = 0;
    let keep = 1
        + (0..trace.len())
            .position(|i| {
                served += trace.prompt_lens[i] + trace.output_lens[i];
                served >= 60_000
            })
            .expect("400 requests serve 60,000 tokens");
    trace.prompt_lens.truncate(keep);
    trace.output_lens.truncate(keep);
    trace.arrival_s.truncate(keep);
    trace.prompt_ids.truncate(keep);
    let warm = simulate_decode_trace(&cfg, &trace);
    let (report, allocated) = allocations(|| simulate_decode_trace(&cfg, &trace));
    assert_eq!(report, warm, "replays are deterministic");
    assert_eq!((trace.len(), report.iterations), (105, 951));
    assert!(report.sparsity_dropped_pages > 0, "sparsity compacts");
    assert!(report.swap_preemptions > 0, "the pool swaps");
    let per_request = allocated as f64 / trace.len() as f64;
    assert!(
        per_request <= PRESSURED_BUDGET_PER_REQUEST,
        "{allocated} heap allocations for {} requests over {} steps: {per_request:.1} per \
         request, budget {PRESSURED_BUDGET_PER_REQUEST}",
        trace.len(),
        report.iterations
    );
}

#[test]
fn shared_prefix_prompts_allocate_once_per_prompt_and_pool_stream() {
    let spec = SharedPrefixSpec::assistants();
    let n = 4000;
    for seed in [1, 64] {
        let (prompts, allocated) = allocations(|| spec.prompts(n, seed));
        // The streams the call drew: one per distinct system prompt and
        // one per distinct (system prompt, template) prefix.
        let systems: HashSet<&[u32]> = prompts.iter().map(|p| &p[..spec.system_tokens]).collect();
        let shared = spec.system_tokens + spec.template_tokens;
        let templates: HashSet<&[u32]> = prompts.iter().map(|p| &p[..shared]).collect();
        let drawn = (systems.len() + templates.len()) as u64;
        let budget = n as u64 + drawn + PROMPTS_FIXED_ALLOCATIONS;
        assert!(
            allocated <= budget,
            "seed {seed}: {allocated} heap allocations for {n} prompts and {drawn} pool \
             streams, budget {budget}"
        );
    }
}
