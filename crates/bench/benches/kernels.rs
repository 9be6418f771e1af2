//! Criterion benches over the *real* kernel implementations (Figure 16's
//! micro-benchmark, executed with actual f32 arithmetic at a
//! laptop-tractable size).
//!
//! Wall-clock here tracks the work each algorithm actually performs —
//! baselines that execute coverage waste pay for it in real time, so the
//! relative shape of Figure 16 is visible without the device model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pit_core::detector::detect_mask;
use pit_core::kernels::{moe_gemm, sdd_m_axis, spmm_k_axis, spmm_m_axis, spmm_row_segments};
use pit_core::microtile::MicroTile;
use pit_gpusim::cost::TileDims;
use pit_gpusim::{CostModel, DeviceSpec};
use pit_kernels::baselines::{blocksparse, cusparse, sputnik};
use pit_kernels::tiles::TileDb;
use pit_sparse::formats::{Bcsr, Csr};
use pit_sparse::generate;
use pit_tensor::{DType, Tensor};

const SIZE: usize = 512;

fn bench_fig16_spmm(c: &mut Criterion) {
    let cost = CostModel::new(DeviceSpec::v100_32gb());
    let mut group = c.benchmark_group("fig16_spmm_real");
    group.sample_size(10);
    for sparsity in [0.90, 0.99] {
        let mask = generate::granular_random(SIZE, SIZE, 32, 1, sparsity, 1);
        let a = mask.apply(&Tensor::random([SIZE, SIZE], 2));
        let b = Tensor::random([SIZE, SIZE], 3);
        let csr = Csr::from_dense(&a);
        let bcsr = Bcsr::from_dense(&a, 32, 32);
        let index = detect_mask(&cost, &mask, MicroTile::new(16, 1), 4);
        let tile = TileDims::new(16, 16, 16);

        group.bench_with_input(
            BenchmarkId::new("cusparse", format!("{:.0}%", sparsity * 100.0)),
            &sparsity,
            |bench, _| {
                bench.iter(|| cusparse::spmm(&cost, &csr, &b, DType::F32).unwrap());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sputnik", format!("{:.0}%", sparsity * 100.0)),
            &sparsity,
            |bench, _| {
                bench.iter(|| sputnik::spmm(&cost, &csr, &b, DType::F32).unwrap());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("openai_blocksparse", format!("{:.0}%", sparsity * 100.0)),
            &sparsity,
            |bench, _| {
                bench.iter(|| blocksparse::spmm_dsd(&cost, &bcsr, &b, DType::F32).unwrap());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pit_k_axis", format!("{:.0}%", sparsity * 100.0)),
            &sparsity,
            |bench, _| {
                bench.iter(|| spmm_k_axis(&cost, &a, &b, &index, tile, DType::F32).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_row_sparse(c: &mut Criterion) {
    // The dynamic-sequence-length kernel (Figures 8/10/11's core op).
    let cost = CostModel::new(DeviceSpec::v100_32gb());
    let mut group = c.benchmark_group("row_sparse_gemm_real");
    group.sample_size(10);
    let lens: Vec<usize> = (0..8).map(|i| 16 + i * 8).collect();
    let mask = generate::token_row_mask(&lens, 64, SIZE);
    let a = mask.apply(&Tensor::random([512, SIZE], 4));
    let b = Tensor::random([SIZE, SIZE], 5);
    let rows: Vec<u32> = mask.nonzero_rows().iter().map(|&r| r as u32).collect();
    let tile = TileDims::new(32, 32, 32);
    group.bench_function("pit_m_axis", |bench| {
        bench.iter(|| spmm_m_axis(&cost, &a, &b, &rows, tile, DType::F32).unwrap());
    });
    group.bench_function("dense_padded", |bench| {
        bench.iter(|| pit_kernels::dense::matmul_tiled(&cost, &a, &b, tile, DType::F32).unwrap());
    });
    group.finish();
}

/// The kernel behind each of hostbench's seven `pit_ops` operator sites,
/// timed alone on one fixed input of the site's shape and sparsity (fp32
/// on the modelled A100, the index detected outside the timed call), so a
/// kernel change shows per site without running hostbench. The k-axis
/// strips and tiles are the ones Algorithm 1 picks at those sites.
fn bench_pit_ops_sites(c: &mut Criterion) {
    let cost = CostModel::new(DeviceSpec::a100_80gb());
    let db = TileDb::profile(&cost);
    let mut group = c.benchmark_group("pit_ops_sites");
    group.sample_size(20);
    let operand = |(m, k): (usize, usize), (gh, gw), sparsity| {
        let mask = generate::granular_random(m, k, gh, gw, sparsity, 1);
        (mask.apply(&Tensor::random([m, k], 2)), mask)
    };
    for ((m, k, n), gran, sparsity, tile) in [
        ((256, 512, 128), (1, 1), 0.99, TileDims::new(16, 16, 16)),
        ((512, 256, 256), (8, 1), 0.95, TileDims::new(8, 32, 128)),
        ((384, 384, 192), (32, 1), 0.90, TileDims::new(32, 64, 32)),
    ] {
        let (a, mask) = operand((m, k), gran, sparsity);
        let b = Tensor::random([k, n], 3);
        let index = detect_mask(&cost, &mask, MicroTile::new(tile.m, 1), 1);
        group.bench_function(format!("k_axis_{}x1", tile.m), |bench| {
            bench.iter(|| spmm_k_axis(&cost, &a, &b, &index, tile, DType::F32).unwrap());
        });
    }
    for ((m, k, n), gran, sparsity, w) in [
        ((256, 768, 96), (1, 8), 0.97, 8),
        ((320, 320, 160), (16, 16), 0.93, 16),
    ] {
        let (a, mask) = operand((m, k), gran, sparsity);
        let b = Tensor::random([k, n], 3);
        let index = detect_mask(&cost, &mask, MicroTile::new(1, w), 1);
        group.bench_function(format!("row_segments_1x{w}"), |bench| {
            bench
                .iter(|| spmm_row_segments(&cost, &a, &b, &index, mask.nnz(), DType::F32).unwrap());
        });
    }
    let (seq, head) = (256, 64);
    let q = Tensor::random([seq, head], 4);
    let kt = Tensor::random([head, seq], 5);
    let window = generate::longformer_mask(seq, 32, &[3, 100, 200]);
    let tile = db.best_dense_tile(&cost, seq, head, 64, false).dims;
    group.bench_function("sdd_longformer_32", |bench| {
        bench.iter(|| sdd_m_axis(&cost, &q, &kt, &window, tile, DType::F32).unwrap());
    });
    let (tokens, h, f, experts) = (256, 128, 256, 8);
    let x = Tensor::random([tokens, h], 6);
    let weights: Vec<Tensor> = (0..experts)
        .map(|e| Tensor::random([h, f], 7 + e as u64))
        .collect();
    let routing = generate::RoutingPlan::sample(tokens, experts, 1.0, 8).expert_token_lists();
    let most = routing.iter().map(Vec::len).max().unwrap_or(1);
    let tile = db.best_dense_tile(&cost, most, h, f, false).dims;
    group.bench_function("moe_256x128x256_8", |bench| {
        bench.iter(|| moe_gemm(&cost, &x, &weights, &routing, tile, DType::F32).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig16_spmm,
    bench_row_sparse,
    bench_pit_ops_sites
);
criterion_main!(benches);
