//! Criterion bench of Algorithm-1 kernel selection (§5.5: the paper
//! reports 30–100 µs per online search), and of the dense tile choice
//! every dense GEMM price and every selection's dense fallback makes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pit_core::selection::select_kernel;
use pit_gpusim::{CostModel, DeviceSpec};
use pit_kernels::tiles::TileDb;
use pit_models::ModelConfig;
use pit_sparse::generate;
use pit_tensor::DType;

fn bench_selection(c: &mut Criterion) {
    let cost = CostModel::new(DeviceSpec::v100_32gb());
    let db = TileDb::profile(&cost);
    let mut group = c.benchmark_group("micro_tile_online_search");
    for (gh, gw, sp) in [(2usize, 1usize, 0.95), (8, 1, 0.99), (32, 1, 0.95)] {
        let mask = generate::granular_random(4096, 4096, gh, gw, sp, 9);
        group.bench_with_input(
            BenchmarkId::new("table3_search", format!("({gh},{gw})@{:.0}%", sp * 100.0)),
            &mask,
            |bench, m| {
                bench.iter(|| select_kernel(&cost, &db, std::slice::from_ref(m), 4096, DType::F32));
            },
        );
    }
    group.finish();
}

/// `TileDb::best_dense_tile` over two sets of shapes, timed per set: the
/// fp16 GEMMs of an OPT-1.3B decode step (qkv, out, fc1, fc2 and head at
/// 1..=128 rows, as `Engine::price_gemm` sees them) and the seven operator
/// sites of the host benchmark's `pit_ops` workload in fp32.
fn bench_dense_tile_choice(c: &mut Criterion) {
    let cost = CostModel::new(DeviceSpec::a100_80gb());
    let db = TileDb::profile(&cost);
    let model = ModelConfig::opt("1.3B");
    let (h, f, vocab) = (model.hidden, model.ffn, model.vocab.min(4096));
    let decode: Vec<(usize, usize, usize)> = (1..=128)
        .flat_map(|rows| {
            [
                (rows, h, 3 * h),
                (rows, h, h),
                (rows, h, f),
                (rows, f, h),
                (rows, h, vocab),
            ]
        })
        .collect();
    let sites = [
        (256, 512, 128),
        (512, 256, 256),
        (384, 384, 192),
        (256, 768, 96),
        (320, 320, 160),
        (256, 64, 256),
        (256, 128, 256),
    ];
    let mut group = c.benchmark_group("dense_tile_choice");
    for (name, shapes, tc) in [
        ("opt_1.3b_decode_fp16", &decode[..], true),
        ("pit_ops_sites_fp32", &sites[..], false),
    ] {
        let id = BenchmarkId::new(name, format!("{}_shapes", shapes.len()));
        group.bench_function(id, |bench| {
            bench.iter(|| {
                for &(m, k, n) in black_box(shapes) {
                    black_box(db.best_dense_tile(&cost, m, k, n, tc));
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_selection, bench_dense_tile_choice);
criterion_main!(benches);
