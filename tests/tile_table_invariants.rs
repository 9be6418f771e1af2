//! Property tests: pricing a dense GEMM from the profiled tile table picks
//! the same tile at the same latency as deriving every tile from the cost
//! model, bit for bit.
//!
//! The oracle is the selection rule written out here: a `min_by` over
//! `CostModel::dense_gemm_latency` for every tile of the path, which keeps
//! the first of equal minima. A second oracle writes the dense-GEMM
//! latency out from the cost model's public parts, so the shared formula
//! cannot drift (drop its SM clamp, say) without failing here too. Every
//! modelled number is compared by `to_bits()`.

use pit::gpusim::cost::{TileDims, TILE_SCHED_S};
use pit::gpusim::{CostModel, DeviceSpec, KernelStats};
use pit::kernels::baselines::cublas;
use pit::kernels::dense;
use pit::kernels::tiles::TileDb;
use pit::models::{Engine, Framework};
use pit::tensor::DType;
use proptest::prelude::*;

const DTYPES: [DType; 2] = [DType::F32, DType::F16];

fn devices() -> [DeviceSpec; 2] {
    [DeviceSpec::a100_80gb(), DeviceSpec::v100_32gb()]
}

/// A dense GEMM's latency with `tile`, written out as the cost model
/// charged it before the tile table was read.
fn written_out_latency(
    cost: &CostModel,
    m: usize,
    k: usize,
    n: usize,
    tile: TileDims,
    dtype: DType,
) -> f64 {
    let d = cost.device();
    let elem = dtype.size_bytes();
    let tiles = m.div_ceil(tile.m) * n.div_ceil(tile.n);
    if tiles == 0 {
        return d.kernel_launch_s;
    }
    let passes = tiles * k.div_ceil(tile.k).max(1);
    let pass = cost.tile_pass_cost(tile, elem, dtype.tensor_core_eligible());
    let writeback = (tile.area() * elem) as f64 / d.bw_per_sm();
    let sms = d.num_sms.min(tiles) as f64;
    (passes as f64 * pass + tiles as f64 * (writeback + TILE_SCHED_S)) / sms + d.kernel_launch_s
}

/// The old selection rule: every tile derived from the cost model, the
/// first of equal minima kept. Returns the tile and its latency.
fn oracle(
    cost: &CostModel,
    db: &TileDb,
    m: usize,
    k: usize,
    n: usize,
    dtype: DType,
) -> (TileDims, f64) {
    let (elem, tc) = (dtype.size_bytes(), dtype.tensor_core_eligible());
    let latency = |t: TileDims| cost.dense_gemm_latency(m, k, n, t, elem, tc);
    let tile = db
        .tiles(tc)
        .map(|t| t.dims)
        .min_by(|&a, &b| {
            latency(a)
                .partial_cmp(&latency(b))
                .expect("finite latencies")
        })
        .expect("tile database is never empty");
    (tile, latency(tile))
}

fn bits(s: &KernelStats) -> [u64; 6] {
    [
        s.flops_useful.to_bits(),
        s.flops_executed.to_bits(),
        s.bytes_read.to_bits(),
        s.bytes_written.to_bits(),
        s.tiles_executed as u64,
        s.latency_s.to_bits(),
    ]
}

/// Checks every table-priced path against the oracles for one shape.
fn check_shape(m: usize, k: usize, n: usize) {
    for device in devices() {
        let cost = CostModel::new(device.clone());
        let db = TileDb::profile(&cost);
        for dtype in DTYPES {
            let tc = dtype.tensor_core_eligible();
            for t in db.tiles(tc) {
                assert_eq!(
                    cost.dense_gemm_latency(m, k, n, t.dims, dtype.size_bytes(), tc)
                        .to_bits(),
                    written_out_latency(&cost, m, k, n, t.dims, dtype).to_bits(),
                    "{} {dtype:?} {m}x{k}x{n} on {}: shared formula drifted",
                    device.name,
                    t.dims
                );
            }
            let (want_tile, want_latency) = oracle(&cost, &db, m, k, n, dtype);
            let (got, got_latency) = db.best_dense_gemm(&cost, m, k, n, tc);
            let ctx = format!("{} {dtype:?} {m}x{k}x{n}", device.name);
            assert_eq!(got.dims, want_tile, "{ctx}: tile");
            assert_eq!(
                db.best_dense_tile(&cost, m, k, n, tc).dims,
                want_tile,
                "{ctx}: tile"
            );
            assert_eq!(
                got_latency.to_bits(),
                want_latency.to_bits(),
                "{ctx}: latency"
            );
            assert_eq!(
                bits(&cublas::gemm_cost_only(&cost, &db, m, k, n, dtype)),
                bits(&dense::matmul_cost_only(&cost, m, k, n, want_tile, dtype)),
                "{ctx}: cublas::gemm_cost_only"
            );
            for devs in [1, 8] {
                let eng = Engine::new(device.clone(), dtype, Framework::PyTorch).with_devices(devs);
                let got = eng.price_gemm(m, k, n);
                if m == 0 || k == 0 || n == 0 {
                    assert!(got.is_none(), "{ctx}: empty GEMM priced");
                    continue;
                }
                let k_dev = k.div_ceil(devs);
                let (tile, _) = oracle(&cost, &db, m, k_dev, n, dtype);
                let mut want = dense::matmul_cost_only(&cost, m, k_dev, n, tile, dtype);
                want.latency_s = want.latency_s.max(device.kernel_launch_s);
                assert_eq!(
                    bits(&got.expect("non-empty GEMM")),
                    bits(&want),
                    "{ctx}: Engine::price_gemm on {devs} devices"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_pricing_equals_deriving_every_tile(
        m_raw in 0usize..=8192,
        m_shift in 0u32..=13,
        k_raw in 0usize..=8192,
        k_shift in 0u32..=13,
        n_raw in 0usize..=8192,
        n_shift in 0u32..=13,
    ) {
        // Each side is `raw >> shift`: up to 8192, log-spread so that sides
        // below a tile's (and 0 and 1) come up often.
        check_shape(m_raw >> m_shift, k_raw >> k_shift, n_raw >> n_shift);
    }
}

#[test]
fn edge_shapes_price_like_the_oracle() {
    for (m, k, n) in [
        (1, 1, 1),
        (1, 1, 8192),
        (8192, 1, 8192),
        (7, 1, 3),
        (1, 2048, 6144),
        (128, 8192, 2048),
        (8192, 8192, 8192),
        (33, 7, 129),
        (0, 1, 1),
        (1, 1, 0),
        (0, 0, 0),
    ] {
        check_shape(m, k, n);
    }
}

#[test]
fn empty_outputs_pick_the_first_tile_at_the_launch_floor() {
    for device in devices() {
        let cost = CostModel::new(device.clone());
        let db = TileDb::profile(&cost);
        for tc in [false, true] {
            let first = db.tiles(tc).next().expect("non-empty path");
            for (m, k, n) in [(0, 64, 64), (64, 64, 0), (0, 0, 0), (0, 4096, 4096)] {
                let (tile, latency) = db.best_dense_gemm(&cost, m, k, n, tc);
                assert_eq!(tile.dims, first.dims, "{} tc={tc} {m}x{k}x{n}", device.name);
                assert_eq!(latency.to_bits(), device.kernel_launch_s.to_bits());
            }
        }
    }
}
