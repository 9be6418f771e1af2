//! `CoverAlgo` — micro-tile coverage statistics (paper Algorithm 1, line 8).
//!
//! Given a sparsity pattern and a micro-tile shape, `CoverAlgo` computes how
//! many micro-tiles are needed to cover every non-zero value, how many
//! elements those micro-tiles span, and therefore the *after-cover sparsity*
//! reported in the paper's Table 3 (the sparsity remaining inside PIT's
//! computation after covering at micro-tile granularity).

use crate::mask::Mask;

/// Coverage statistics of a mask under a given micro-tile shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverStats {
    /// Micro-tile height.
    pub tile_h: usize,
    /// Micro-tile width.
    pub tile_w: usize,
    /// Number of micro-tiles containing at least one non-zero.
    pub nonzero_tiles: usize,
    /// Total number of micro-tile positions in the grid.
    pub total_tiles: usize,
    /// Non-zero elements in the mask.
    pub nnz: usize,
    /// Elements covered by the non-zero micro-tiles.
    pub covered_elems: usize,
}

impl CoverStats {
    /// Sparsity remaining after coverage: fraction of covered elements that
    /// are still zero (Table 3's "Sparsity Ratio After Cover").
    pub fn after_cover_sparsity(&self) -> f64 {
        if self.covered_elems == 0 {
            return 0.0;
        }
        1.0 - self.nnz as f64 / self.covered_elems as f64
    }
}

/// Runs `CoverAlgo`: counts the micro-tiles of shape `tile_h × tile_w`
/// needed to cover all non-zeros of `mask`.
///
/// # Examples
///
/// ```
/// use pit_sparse::{cover_count, Mask};
/// let mut m = Mask::zeros(8, 8);
/// m.set(0, 0, true);
/// m.set(7, 7, true);
/// let stats = cover_count(&m, 4, 4);
/// assert_eq!(stats.nonzero_tiles, 2);
/// assert_eq!(stats.total_tiles, 4);
/// ```
pub fn cover_count(mask: &Mask, tile_h: usize, tile_w: usize) -> CoverStats {
    assert!(tile_h > 0 && tile_w > 0, "micro-tile dims must be positive");
    let grid_r = mask.rows().div_ceil(tile_h);
    let grid_c = mask.cols().div_ceil(tile_w);
    let mut nonzero_tiles = 0usize;
    let mut covered_elems = 0usize;
    for tr in 0..grid_r {
        for tc in 0..grid_c {
            let r0 = tr * tile_h;
            let c0 = tc * tile_w;
            if mask.block_any(r0, c0, tile_h, tile_w) {
                nonzero_tiles += 1;
                let h = tile_h.min(mask.rows() - r0);
                let w = tile_w.min(mask.cols() - c0);
                covered_elems += h * w;
            }
        }
    }
    CoverStats {
        tile_h,
        tile_w,
        nonzero_tiles,
        total_tiles: grid_r * grid_c,
        nnz: mask.nnz(),
        covered_elems,
    }
}

/// Returns the coordinates `(tile_row, tile_col)` of every non-zero
/// micro-tile, in row-major order (the *ordered* reference against which
/// the unordered online detector is validated).
pub fn nonzero_tiles(mask: &Mask, tile_h: usize, tile_w: usize) -> Vec<(usize, usize)> {
    assert!(tile_h > 0 && tile_w > 0, "micro-tile dims must be positive");
    let grid_r = mask.rows().div_ceil(tile_h);
    let grid_c = mask.cols().div_ceil(tile_w);
    let mut out = Vec::new();
    for tr in 0..grid_r {
        for tc in 0..grid_c {
            if mask.block_any(tr * tile_h, tc * tile_w, tile_h, tile_w) {
                out.push((tr, tc));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mask_covers_everything() {
        let m = Mask::ones(16, 16);
        let s = cover_count(&m, 4, 4);
        assert_eq!(s.nonzero_tiles, 16);
        assert_eq!(s.covered_elems, 256);
        assert_eq!(s.after_cover_sparsity(), 0.0);
    }

    #[test]
    fn empty_mask_covers_nothing() {
        let m = Mask::zeros(16, 16);
        let s = cover_count(&m, 4, 4);
        assert_eq!(s.nonzero_tiles, 0);
        assert_eq!(s.after_cover_sparsity(), 0.0);
    }

    #[test]
    fn single_element_covers_one_tile() {
        let mut m = Mask::zeros(16, 16);
        m.set(5, 5, true);
        let s = cover_count(&m, 4, 4);
        assert_eq!(s.nonzero_tiles, 1);
        assert_eq!(s.covered_elems, 16);
        assert!((s.after_cover_sparsity() - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn ragged_edges_counted_correctly() {
        // 10x10 mask, 4x4 tiles: edge tiles are clipped to 4x2 / 2x4 / 2x2.
        let m = Mask::ones(10, 10);
        let s = cover_count(&m, 4, 4);
        assert_eq!(s.nonzero_tiles, 9);
        assert_eq!(s.covered_elems, 100);
    }

    #[test]
    fn smaller_tiles_cover_fewer_elements() {
        let mut m = Mask::zeros(64, 64);
        for i in 0..64 {
            m.set(i, i, true);
        }
        let s8 = cover_count(&m, 8, 8);
        let s1 = cover_count(&m, 1, 2);
        assert!(s1.covered_elems < s8.covered_elems);
        assert!(s1.after_cover_sparsity() < s8.after_cover_sparsity());
    }

    #[test]
    fn nonzero_tiles_matches_cover_count() {
        let m = Mask::from_fn(32, 32, |r, c| (r * c) % 17 == 0);
        let list = nonzero_tiles(&m, 4, 8);
        let stats = cover_count(&m, 4, 8);
        assert_eq!(list.len(), stats.nonzero_tiles);
    }
}
