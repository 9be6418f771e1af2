//! Heap allocations of a decode replay, counted by a global allocator.
//!
//! A decode step touches each running sequence once, by its KV slot, and
//! builds its shape and chunk plan in buffers the scheduler reuses; with
//! no sink, hub or exemplar reservoir attached, recording builds nothing.
//! What a replay still allocates follows its requests (their page tables,
//! the report's sketches), not its steps, so a long-output trace of many
//! more steps than requests must stay within a small budget per request.

use pit::gpusim::DeviceSpec;
use pit::models::ModelConfig;
use pit::serve::decode::{simulate_decode_trace, DecodePolicy, DecodeServeConfig};
use pit::workloads::{DatasetSpec, DecodeSpec, DecodeTrace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations one request may cost a replay.
const BUDGET_PER_REQUEST: f64 = 16.0;

/// The system allocator, counting fresh and resized blocks on threads
/// that have counting on.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only an atomic and a const-initialised thread-local, neither of which
// allocates.
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
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
