//! Prefix-cache bench: radix-index microbenches (lookup/insert/evict on a
//! populated tree) plus a hit-rate sweep over the workload's share ratio,
//! and the cost of generating the shared-prefix prompts themselves.
//!
//! The wall-clock numbers measure host-side index cost — the per-request
//! overhead prefix caching adds to admission; the sweep (printed once,
//! outside the timing loops) shows how the prefix hit rate and the
//! prefill tokens served from cache scale with how concentrated the
//! system-prompt pool is, so `cargo bench --bench prefix` doubles as the
//! prefix-caching ablation table. `workloads/assistants_prompts_4000`
//! times one `SharedPrefixSpec::assistants().prompts(4000, _)` call, the
//! size of each trace a shared-prefix replay benchmark generates before
//! cutting it to its token budget.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pit_prefix::RadixPrefixIndex;
use pit_serve::decode::{simulate_decode_trace, DecodePolicy, DecodeServeConfig};
use pit_workloads::{ArrivalTrace, DatasetSpec, DecodeSpec, SharedPrefixSpec};

const PAGE: usize = 16;

fn spec(num_system_prompts: usize, zipf: f64) -> SharedPrefixSpec {
    let mut s = SharedPrefixSpec::assistants();
    s.num_system_prompts = num_system_prompts;
    s.zipf_exponent = zipf;
    s
}

/// An index populated with `n` prompts, plus the prompts themselves.
fn populated(n: usize, seed: u64) -> (RadixPrefixIndex, Vec<Vec<u32>>) {
    let prompts = spec(8, 1.1).prompts(n, seed);
    let mut ix = RadixPrefixIndex::new(PAGE);
    let mut next_page = 0u32;
    for p in &prompts {
        let full = p.len() / PAGE;
        let m = ix.match_prefix(p);
        let mut pages = m.pages;
        pages.extend((pages.len()..full).map(|_| {
            next_page += 1;
            next_page
        }));
        ix.insert(p, &pages);
    }
    (ix, prompts)
}

fn bench_prefix(c: &mut Criterion) {
    // Hit-rate sweep: share ratio rises with pool concentration. Printed
    // once per config so the bench doubles as the ablation table.
    let arrivals = ArrivalTrace::bursty(&DatasetSpec::mnli(), 96, 400.0, 0.25, 0.5, 23);
    for (pool, zipf) in [(32, 0.5), (8, 1.1), (2, 1.1), (1, 1.1)] {
        let trace = spec(pool, zipf).decode_trace(
            &DecodeSpec::geometric(48.0, 1, 192),
            arrivals.arrival_s.clone(),
            23,
        );
        let mut model = pit_models::ModelConfig::opt("1.3B");
        model.layers = 2;
        let cfg = DecodeServeConfig::builder(model, pit_gpusim::DeviceSpec::a100_80gb())
            .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 128 })
            .prefix_caching(true)
            .build()
            .expect("valid bench config");
        let r = simulate_decode_trace(&cfg, &trace);
        println!(
            "prefix/sweep pool={pool} zipf={zipf}: hit rate {:.0}%, \
             {} of {} prompt tokens served from cache, prefill {} tokens",
            r.prefix_hit_rate() * 100.0,
            r.prefix_cached_tokens,
            trace.total_prompt_tokens(),
            r.prefill_tokens,
        );
    }

    // Radix microbenches on a tree populated with 256 realistic prompts.
    let mut group = c.benchmark_group("radix");
    group.sample_size(50);
    let (mut ix, prompts) = populated(256, 7);
    group.bench_with_input(BenchmarkId::new("match", "warm_256"), &(), |b, ()| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % prompts.len();
            black_box(ix.match_prefix(&prompts[i]).tokens)
        });
    });
    group.bench_with_input(BenchmarkId::new("insert", "fresh_tree"), &(), |b, ()| {
        b.iter(|| {
            let mut ix = RadixPrefixIndex::new(PAGE);
            let mut page = 0u32;
            for p in prompts.iter().take(64) {
                let full = p.len() / PAGE;
                let held = ix.match_prefix(p).pages;
                let mut pages = held;
                pages.extend((pages.len()..full).map(|_| {
                    page += 1;
                    page
                }));
                ix.insert(p, &pages);
            }
            black_box(ix.pages_held())
        });
    });
    group.bench_with_input(
        BenchmarkId::new("evict", "rebuild_and_drain"),
        &(),
        |b, ()| {
            b.iter(|| {
                let (mut ix, _) = populated(64, 11);
                let mut total = 0;
                while !ix.is_empty() {
                    total += ix.evict_lru(4).len();
                }
                black_box(total)
            });
        },
    );
    group.finish();
    let _ = ix.drain_all();

    let mut group = c.benchmark_group("workloads");
    group.sample_size(20);
    let assistants = SharedPrefixSpec::assistants();
    group.bench_function("assistants_prompts_4000", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(assistants.prompts(4000, seed))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_prefix);
criterion_main!(benches);
