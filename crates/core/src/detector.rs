//! Online sparsity detection (paper §3.3).
//!
//! The detector builds the index of non-zero micro-tiles **on the fly**,
//! in parallel, and — crucially — *unordered*: because the kernel will
//! permute micro-tiles along a PIT-axis anyway, no worker needs to know
//! where in the index its findings land. The resulting order depends on
//! thread scheduling, exactly as on a GPU.
//!
//! The host scan reads the mask 64 bits at a time. For each strip of
//! `micro.h` rows it ORs the rows' words together (the same strip OR that
//! Algorithm 1's cover count uses) and then tests each micro-column at
//! most once: a set bit marks its micro-column non-zero and the scan jumps
//! to the next micro-column. Each worker scans a contiguous run of strips
//! into a private buffer and appends the run to the index once — the
//! block-aggregated form of the paper's `atomicadd` slot reservation, so
//! a strip's micro-tiles stay in ascending column order. Small masks are
//! scanned on the calling thread. The *modelled GPU cost* is one scan of
//! the mask plus the appends (see `pit_gpusim::cost`).
//!
//! The index is all the SRead side of a kernel needs: the kernels in
//! [`crate::kernels`] turn its coordinates into offsets into the
//! operands' original buffers, with no conversion pass (zero-copy, §3.3).

use crate::microtile::MicroTile;
use pit_gpusim::{CostModel, KernelStats};
use pit_sparse::Mask;
use pit_tensor::Tensor;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// Masks of at least this many 64-bit words are scanned by up to
/// `threads` workers; smaller ones on the calling thread, where spawning
/// a worker would cost more than the whole scan.
const PARALLEL_MIN_WORDS: usize = 1 << 14;

/// The most workers a scan uses: the host's available parallelism, read
/// once per process. More workers than cores only queue behind each other
/// (on 2 cores, 4 workers lose to 1 on a 2048² mask).
fn max_workers() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The index of non-zero micro-tiles of one sparse tensor.
///
/// Coordinates are *(tile_row, tile_col)* in the micro-tile grid, in
/// whatever order the parallel detection produced.
#[derive(Debug, Clone)]
pub struct MicroTileIndex {
    /// Micro-tile shape this index was built at.
    pub micro: MicroTile,
    /// Micro-tile grid dimensions (rows, cols).
    pub grid: (usize, usize),
    /// Unordered coordinates of non-zero micro-tiles.
    pub coords: Vec<(u32, u32)>,
    /// Modelled GPU-side construction statistics.
    pub stats: KernelStats,
}

impl MicroTileIndex {
    /// Number of non-zero micro-tiles.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// True when no micro-tile is non-zero.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Coordinates sorted row-major — used by tests to compare against the
    /// ordered reference; the kernels never need this.
    pub fn sorted_coords(&self) -> Vec<(u32, u32)> {
        let mut c = self.coords.clone();
        c.sort_unstable();
        c
    }

    /// The non-zero rows of the micro-tile grid (deduplicated, unordered
    /// input, sorted output).
    pub fn nonzero_grid_rows(&self) -> Vec<u32> {
        let mut rows: Vec<u32> = self.coords.iter().map(|&(r, _)| r).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}

/// Detects non-zero micro-tiles of a [`Mask`] in parallel and returns the
/// unordered index, plus a modelled GPU cost of doing the same on device.
///
/// `threads` caps host parallelism: a mask of at least 2^14 words is split
/// into contiguous runs of strips, one worker each, with at most `threads`
/// workers and never more than the host's available parallelism; a
/// smaller one is scanned on the calling thread. The result set is
/// identical regardless, and within a grid row the columns ascend.
pub fn detect_mask(
    cost: &CostModel,
    mask: &Mask,
    micro: MicroTile,
    threads: usize,
) -> MicroTileIndex {
    let grid_r = mask.rows().div_ceil(micro.h);
    let grid_c = mask.cols().div_ceil(micro.w);
    let words = mask.rows() * mask.cols().div_ceil(64);
    let workers = if words >= PARALLEL_MIN_WORDS {
        threads.min(max_workers()).clamp(1, grid_r.max(1))
    } else {
        1
    };
    let coords = if workers == 1 {
        let mut coords = Vec::new();
        scan_strips(mask, micro, 0..grid_r, &mut coords);
        coords
    } else {
        let index = Mutex::new(Vec::new());
        let per_worker = grid_r.div_ceil(workers);
        let scan_run = |w: usize| {
            let mut found = Vec::new();
            let run = w * per_worker..((w + 1) * per_worker).min(grid_r);
            scan_strips(mask, micro, run, &mut found);
            index
                .lock()
                .expect("a worker panicked while appending its run")
                .extend(found);
        };
        // The calling thread scans the first run itself.
        std::thread::scope(|s| {
            for w in 1..workers {
                let scan_run = &scan_run;
                s.spawn(move || scan_run(w));
            }
            scan_run(0);
        });
        index
            .into_inner()
            .expect("a worker panicked while appending its run")
    };
    let n = coords.len();
    // Modelled GPU cost: one scan of the mask bits plus the appends.
    let scan_bytes = (mask.numel() / 8) as f64;
    let latency = cost.scan_pass(scan_bytes) + cost.index_append(n);
    MicroTileIndex {
        micro,
        grid: (grid_r, grid_c),
        coords,
        stats: KernelStats {
            flops_useful: 0.0,
            flops_executed: 0.0,
            bytes_read: scan_bytes,
            bytes_written: (n * 8) as f64,
            tiles_executed: 0,
            latency_s: latency,
        },
    }
}

/// Appends the non-zero micro-tiles of grid rows `strips` to `out`,
/// row-major: for each strip, the OR of its rows, then one bit-scan over
/// those words that tests each micro-column at most once.
pub(crate) fn scan_strips(
    mask: &Mask,
    micro: MicroTile,
    strips: Range<usize>,
    out: &mut Vec<(u32, u32)>,
) {
    let mut acc = Vec::new();
    for s in strips {
        let words = mask.strip_or(s * micro.h, micro.h, &mut acc);
        // First column not yet covered by a found micro-tile.
        let mut next = 0;
        for (wi, &word) in words.iter().enumerate() {
            let base = wi * 64;
            if next >= base + 64 {
                continue;
            }
            let mut bits = word & (u64::MAX << next.saturating_sub(base));
            while bits != 0 {
                let tc = (base + bits.trailing_zeros() as usize) / micro.w;
                out.push((s as u32, tc as u32));
                next = (tc + 1) * micro.w;
                if next >= base + 64 {
                    break;
                }
                bits &= u64::MAX << (next - base);
            }
        }
    }
}

/// Detects non-zero micro-tiles directly from tensor *values* (the case
/// where "the coordinates of sparse values in the tensors are unknown",
/// §1) — e.g. a ReLU output. The modelled scan reads the full value buffer
/// rather than a bitset.
pub fn detect_tensor(
    cost: &CostModel,
    t: &Tensor,
    micro: MicroTile,
    threads: usize,
) -> MicroTileIndex {
    let mask = Mask::from_tensor(t);
    let mut index = detect_mask(cost, &mask, micro, threads);
    let scan_bytes = t.device_bytes() as f64;
    index.stats.bytes_read = scan_bytes;
    index.stats.latency_s = cost.scan_pass(scan_bytes) + cost.index_append(index.len());
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use pit_gpusim::DeviceSpec;
    use pit_sparse::cover::nonzero_tiles;
    use pit_sparse::generate;

    fn cost() -> CostModel {
        CostModel::new(DeviceSpec::v100_32gb())
    }

    #[test]
    fn detects_same_set_as_ordered_reference() {
        let cost = cost();
        let mask = generate::granular_random(256, 256, 2, 2, 0.95, 7);
        let micro = MicroTile::new(8, 1);
        let idx = detect_mask(&cost, &mask, micro, 4);
        let reference: Vec<(u32, u32)> = nonzero_tiles(&mask, 8, 1)
            .into_iter()
            .map(|(r, c)| (r as u32, c as u32))
            .collect();
        assert_eq!(idx.sorted_coords(), reference);
    }

    #[test]
    fn single_and_multi_thread_agree() {
        let cost = cost();
        // 2^14 words: large enough for the scan to fan out.
        let mask = generate::granular_random(1024, 1024, 1, 4, 0.9, 3);
        let micro = MicroTile::new(1, 8);
        let one = detect_mask(&cost, &mask, micro, 1);
        let many = detect_mask(&cost, &mask, micro, 8);
        assert_eq!(one.sorted_coords(), many.sorted_coords());
        assert_eq!(one.coords, one.sorted_coords());
    }

    #[test]
    fn empty_mask_detects_nothing() {
        let cost = cost();
        let mask = Mask::zeros(64, 64);
        let idx = detect_mask(&cost, &mask, MicroTile::new(4, 4), 4);
        assert!(idx.is_empty());
        assert!(idx.stats.latency_s > 0.0);
    }

    #[test]
    fn detect_tensor_matches_mask_path() {
        let cost = cost();
        let mask = generate::granular_random(64, 96, 1, 1, 0.8, 9);
        let t = mask.apply(&Tensor::random([64, 96], 10));
        let from_tensor = detect_tensor(&cost, &t, MicroTile::new(1, 8), 4);
        let from_mask = detect_mask(&cost, &mask, MicroTile::new(1, 8), 4);
        assert_eq!(from_tensor.sorted_coords(), from_mask.sorted_coords());
        // Value scan reads more bytes than the bitset scan.
        assert!(from_tensor.stats.bytes_read > from_mask.stats.bytes_read);
    }

    #[test]
    fn grid_dims_round_up() {
        let cost = cost();
        let mask = Mask::ones(10, 10);
        let idx = detect_mask(&cost, &mask, MicroTile::new(4, 4), 2);
        assert_eq!(idx.grid, (3, 3));
        assert_eq!(idx.len(), 9);
    }

    #[test]
    fn nonzero_grid_rows_dedups() {
        let cost = cost();
        let mask = Mask::ones(8, 64);
        let idx = detect_mask(&cost, &mask, MicroTile::new(1, 8), 3);
        assert_eq!(idx.nonzero_grid_rows(), (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn detection_cost_far_below_csr_conversion() {
        // §3.3 / Figure 18: PIT's unordered construction beats ordered CSR
        // conversion by several times.
        let cost = cost();
        let mask = generate::granular_random(1024, 1024, 1, 1, 0.5, 1);
        let idx = detect_mask(&cost, &mask, MicroTile::new(1, 1), 4);
        let csr = pit_sparse::formats::convert_cost::csr_via_nonzero_sort(
            &cost,
            4096,
            4096,
            4096 * 4096 / 2,
            4,
        );
        let pit_at_4096 =
            cost.scan_pass((4096.0 * 4096.0) / 8.0) + cost.index_append(4096 * 4096 / 2);
        assert!(csr > 3.0 * pit_at_4096, "csr {csr} vs pit {pit_at_4096}");
        assert!(!idx.is_empty());
    }
}
