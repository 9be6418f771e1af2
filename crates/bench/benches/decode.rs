//! Decode-scheduler bench: the same decode trace served under continuous
//! padding-free batching and the static padded rectangle through the
//! virtual-clock decode runtime, plus a KV-allocator microbench and the
//! per-step pricing, on a fresh engine and on the runtime's reused one.
//!
//! The wall-clock numbers measure scheduler + analytic-executor host
//! cost; the served comparison (tokens per modelled GPU second, padding
//! waste, inter-token p95) is printed once per policy so `cargo bench
//! --bench decode` doubles as the decode-serving throughput table.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pit_gpusim::DeviceSpec;
use pit_kv::{KvConfig, PagedKvCache};
use pit_models::decode::{run_step, DecodeSlot, StepShape};
use pit_models::{Engine, Framework, ModelConfig};
use pit_serve::decode::{simulate_decode_trace, DecodePolicy, DecodeServeConfig};
use pit_tensor::DType;
use pit_workloads::{DatasetSpec, DecodeSpec, DecodeTrace};

fn policies() -> [DecodePolicy; 2] {
    [
        DecodePolicy::ContinuousPaddingFree { token_budget: 128 },
        DecodePolicy::StaticPadded { max_batch: 64 },
    ]
}

fn cfg(policy: DecodePolicy) -> DecodeServeConfig {
    let mut model = ModelConfig::opt("1.3B");
    model.layers = 8; // keep the per-step analytic pass bench-sized
    DecodeServeConfig::builder(model, DeviceSpec::a100_80gb())
        .policy(policy)
        .build()
        .expect("valid bench config")
}

fn bench_decode(c: &mut Criterion) {
    let trace = DecodeTrace::poisson(
        &DatasetSpec::mnli(),
        &DecodeSpec::geometric(96.0, 1, 384),
        96,
        300.0,
        23,
    );

    // Print the served comparison once, outside the timing loops.
    for policy in policies() {
        let report = simulate_decode_trace(&cfg(policy), &trace);
        println!(
            "decode/{}: {:.0} tokens/s on the modelled A100, waste {:.1}%, \
             itl p95 {:.2} ms, {} iterations, {}",
            report.policy,
            report.tokens_per_s(),
            report.padding_waste() * 100.0,
            report.itl.p95 * 1e3,
            report.iterations,
            report.kv,
        );
    }

    let mut group = c.benchmark_group("decode_trace");
    group.sample_size(10);
    for policy in policies() {
        let config = cfg(policy);
        group.bench_with_input(
            BenchmarkId::new("simulate", policy.name()),
            &trace,
            |bench, t| {
                bench.iter(|| simulate_decode_trace(&config, t));
            },
        );
    }
    group.finish();

    // KV-allocator microbench: one alloc + page-granular extends across a
    // full output, then free — the allocator work per served request.
    let mut kv_group = c.benchmark_group("kv_allocator");
    for &(prompt, output) in &[(64usize, 64usize), (512, 512)] {
        kv_group.bench_with_input(
            BenchmarkId::new("request_lifecycle", format!("p{prompt}_o{output}")),
            &(prompt, output),
            |bench, &(prompt, output)| {
                let mut kv = PagedKvCache::new(KvConfig::new(16, 4096));
                let mut id = 0u64;
                bench.iter(|| {
                    id += 1;
                    kv.alloc(id, prompt).expect("pool sized for one request");
                    for _ in 0..output {
                        kv.extend(id, 1).expect("pool has headroom");
                    }
                    black_box(kv.free(id).expect("request held pages"));
                });
            },
        );
    }
    kv_group.finish();

    // Step pricing at full OPT-1.3B depth, two ways. `fresh` builds an
    // engine per step and reads its ledger back — what the host benchmark's
    // `models.step_price_us_*` times. `reused` is what the decode runtime
    // pays each iteration: one engine for the whole replay, its ledger
    // taken (read and reset) after every step.
    let model = ModelConfig::opt("1.3B");
    let shapes = [
        (
            "dense_decode_100",
            StepShape::decode((0..100).map(|i| 128 + 7 * i).collect()),
        ),
        (
            "chunk_sparse_decode",
            StepShape {
                prefill_lens: Vec::new(),
                chunks: vec![(96, 480), (32, 1056)],
                decode: (0..48)
                    .map(|i| DecodeSlot::sparse(128 + 3 * i, 512 + 16 * i))
                    .collect(),
            },
        ),
    ];
    let mut pricing = c.benchmark_group("step_pricing");
    for (name, shape) in &shapes {
        pricing.bench_with_input(BenchmarkId::new("opt_1.3b", name), shape, |bench, shape| {
            bench.iter(|| {
                let mut eng = Engine::new(DeviceSpec::a100_80gb(), DType::F16, Framework::Pit);
                run_step(&mut eng, &model, shape);
                black_box((eng.cost_tally(), eng.latency_ms()))
            });
        });
        let mut eng = Engine::new(DeviceSpec::a100_80gb(), DType::F16, Framework::Pit);
        pricing.bench_with_input(
            BenchmarkId::new("opt_1.3b_reused", name),
            shape,
            |bench, shape| {
                bench.iter(|| {
                    run_step(&mut eng, &model, shape);
                    black_box(eng.take_ledger())
                });
            },
        );
    }
    pricing.finish();
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
