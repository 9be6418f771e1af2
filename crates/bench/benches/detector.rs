//! Criterion bench of the online sparsity detector (Figure 18's PIT bars,
//! real host wall-clock of the parallel unordered index construction).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pit_core::detector::detect_mask;
use pit_core::microtile::MicroTile;
use pit_gpusim::{CostModel, DeviceSpec};
use pit_sparse::generate;

fn bench_detection(c: &mut Criterion) {
    let cost = CostModel::new(DeviceSpec::v100_32gb());
    let mut group = c.benchmark_group("fig18_index_construction");
    group.sample_size(10);
    let mask = generate::granular_random(2048, 2048, 1, 1, 0.95, 7);
    for (mh, mw) in [(1usize, 8usize), (16, 16), (32, 32)] {
        for threads in [1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("pit_{mh}x{mw}"), format!("{threads}t")),
                &threads,
                |bench, &t| {
                    bench.iter(|| detect_mask(&cost, &mask, MicroTile::new(mh, mw), t));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_detection);
criterion_main!(benches);
