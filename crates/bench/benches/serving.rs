//! Serving-throughput bench: the same trace, queued whole at time zero,
//! scheduled and executed under each batching policy through the
//! deterministic single-device simulator, plus a packer microbench.
//!
//! The wall-clock numbers measure scheduler + analytic-executor host cost;
//! the *served* comparison (tokens per modelled GPU second, padding waste)
//! is printed once per policy so `cargo bench --bench serving` doubles as
//! the padded-vs-padding-free throughput table.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pit_serve::{simulate_trace_arrivals, BatchPolicy, ServeConfig};
use pit_workloads::patterns::ArrivalTrace;
use pit_workloads::DatasetSpec;

fn policies() -> [BatchPolicy; 3] {
    [
        BatchPolicy::PaddedToLongest { max_batch: 16 },
        BatchPolicy::Bucketed {
            max_batch: 16,
            buckets: 4,
        },
        BatchPolicy::PaddingFree { token_budget: 2048 },
    ]
}

fn cfg(policy: BatchPolicy) -> ServeConfig {
    let mut cfg = ServeConfig::new(policy);
    cfg.model.layers = 4; // keep the per-batch forward pass bench-sized
    cfg
}

fn bench_serving(c: &mut Criterion) {
    let trace = ArrivalTrace::poisson(&DatasetSpec::mnli(), 192, 200.0, 23);
    // The closed-loop drain: every request arrives at time zero.
    let trace = ArrivalTrace {
        arrival_s: vec![0.0; trace.len()],
        ..trace
    };

    // Print the served-throughput table once, outside the timing loops.
    for policy in policies() {
        let report = simulate_trace_arrivals(&cfg(policy), &trace);
        println!(
            "serving/{}: {:.0} tokens/s on the modelled A100, waste {:.1}%, {} batches",
            report.policy,
            report.tokens_per_s(),
            report.padding_waste() * 100.0,
            report.batches,
        );
    }

    let mut group = c.benchmark_group("serving_trace");
    group.sample_size(10);
    for policy in policies() {
        let config = cfg(policy);
        group.bench_with_input(
            BenchmarkId::new("simulate", policy.name()),
            &trace,
            |bench, trace| {
                bench.iter(|| simulate_trace_arrivals(&config, trace));
            },
        );
    }
    group.finish();

    let mut packer = c.benchmark_group("batch_packer");
    let pending = DatasetSpec::mnli().sample_lengths(4096, 31);
    for policy in policies() {
        packer.bench_with_input(
            BenchmarkId::new("take_count", policy.name()),
            &pending,
            |bench, lens| {
                bench.iter(|| black_box(policy.take_count(black_box(lens).iter().copied())));
            },
        );
    }
    packer.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
